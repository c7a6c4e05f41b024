#include "os/kernel.hh"

#include <algorithm>

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::os {

namespace calib = hw::calib;

LocalOs::LocalOs(hw::ProcessingUnit &pu) : pu_(pu), containers_(*this) {}

sim::Simulation::DelayAwaiter
LocalOs::syscall()
{
    return simulation().delay(scaledSw(calib::kSyscallCost));
}

sim::Simulation::DelayAwaiter
LocalOs::swDelay(sim::SimTime hostCost)
{
    return simulation().delay(scaledSw(hostCost));
}

AddressSpace
LocalOs::makeAddressSpace()
{
    auto &pu = pu_;
    return AddressSpace(
        [&pu](std::int64_t delta) {
            if (delta >= 0)
                return pu.tryAllocate(std::uint64_t(delta));
            pu.free(std::uint64_t(-delta));
            return true;
        },
        regions_);
}

sim::Task<Process *>
LocalOs::spawnProcess(const std::string &name, std::uint64_t privateBytes,
                      obs::SpanContext ctx)
{
    // Copy before the first suspension (see the GCC 12 note in task.hh).
    std::string owned_name = name;
    obs::Span span(ctx, "os.spawn", obs::Layer::Os, pu_.id());
    span.setDetail(owned_name.c_str());
    co_await spawnCost();
    co_return finishSpawn(owned_name, privateBytes);
}

sim::Simulation::DelayAwaiter
LocalOs::spawnCost()
{
    return swDelay(calib::kSpawnProcessCost);
}

Process *
LocalOs::finishSpawn(std::string_view name, std::uint64_t privateBytes)
{
    std::unique_ptr<Process> proc = takeRecord();
    if (privateBytes > 0) {
        label_.assign(name);
        label_ += "/image";
        if (!proc->addressSpace().mapPrivate(label_, privateBytes)) {
            spareProcs_.put(std::move(proc));
            return nullptr; // admission failure
        }
    }
    return &admit(std::move(proc), name);
}

sim::Task<Process *>
LocalOs::fork(Process &parent, const std::string &childName,
              obs::SpanContext ctx)
{
    std::string owned_name = childName;
    obs::Span span(ctx, "os.fork", obs::Layer::Os, pu_.id());
    span.setDetail(owned_name.c_str());
    co_await forkCost(parent);
    co_return &finishFork(parent, owned_name);
}

sim::Simulation::DelayAwaiter
LocalOs::forkCost(const Process &parent)
{
    MOLECULE_ASSERT(parent.threads() == 1,
                    "Unix fork only propagates one thread; merge "
                    "threads first (forkable runtime, §4.2)");
    return swDelay(calib::kForkCost);
}

Process &
LocalOs::finishFork(Process &parent, std::string_view childName)
{
    std::unique_ptr<Process> child = takeRecord();
    parent.addressSpace().forkInto(child->addressSpace());
    return admit(std::move(child), childName);
}

std::unique_ptr<Process>
LocalOs::takeRecord()
{
    std::unique_ptr<Process> proc = spareProcs_.take();
    if (proc == nullptr)
        proc = std::make_unique<Process>(*this, 0, std::string(),
                                         makeAddressSpace());
    return proc;
}

Process &
LocalOs::admit(std::unique_ptr<Process> proc, std::string_view name)
{
    const Pid pid = nextPid_.fetchAdd(1);
    proc->reset(pid, name);
    procs_.push_back(LiveProc{pid, std::move(proc)});
    return *procs_.back().proc;
}

std::vector<LocalOs::LiveProc>::iterator
LocalOs::lowerBound(Pid pid)
{
    return std::lower_bound(
        procs_.begin(), procs_.end(), pid,
        [](const LiveProc &p, Pid key) { return p.pid < key; });
}

void
LocalOs::exitProcess(Process &proc)
{
    proc.state_ = ProcState::Zombie;
    proc.addressSpace().clear();
    const auto it = lowerBound(proc.pid());
    if (it != procs_.end() && it->proc.get() == &proc) {
        spareProcs_.put(std::move(it->proc));
        procs_.erase(it);
    }
}

Process *
LocalOs::findProcess(Pid pid)
{
    const auto it = lowerBound(pid);
    return it != procs_.end() && it->pid == pid ? it->proc.get()
                                                : nullptr;
}

LocalFifo *
LocalOs::createFifo(const std::string &name)
{
    if (fifos_.count(name))
        sim::fatal("FIFO '%s' already exists", name.c_str());
    auto init = [&](std::unique_ptr<LocalFifo> &fifo)
        -> const std::string & {
        if (fifo == nullptr)
            fifo = std::make_unique<LocalFifo>(*this, name);
        else
            fifo->name_ = name;
        return name;
    };
    return spareFifos_.insertInto(fifos_, init).first->second.get();
}

LocalFifo *
LocalOs::findFifo(const std::string &name)
{
    auto it = fifos_.find(name);
    return it == fifos_.end() ? nullptr : it->second.get();
}

void
LocalOs::removeFifo(const std::string &name)
{
    Fifos::node_type node = fifos_.extract(name);
    // Only an idle FIFO is reused; one still holding messages or
    // readers goes with its name.
    if (!node.empty() && node.mapped()->idle())
        spareFifos_.put(std::move(node));
}

void
LocalOs::crashReset()
{
    for (LiveProc &live : procs_) {
        live.proc->state_ = ProcState::Zombie;
        live.proc->addressSpace().clear();
        deadProcs_.bury(std::move(live.proc));
    }
    procs_.clear();
    // Poison blocked readers, then retire the FIFOs to the graveyard:
    // the woken coroutines still touch the mailbox when they resume
    // later this tick, so the objects must outlive the crash instant.
    for (auto &[name, fifo] : fifos_) {
        fifo->poison("!fault:pu-crash");
        deadFifos_.bury(std::move(fifo));
    }
    fifos_.clear();
}

} // namespace molecule::os
