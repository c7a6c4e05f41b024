#include "os/container.hh"

#include "hw/calibration.hh"
#include "os/kernel.hh"
#include "sim/logging.hh"

namespace molecule::os {

namespace calib = hw::calib;

ContainerManager::ContainerManager(LocalOs &os)
    : os_(os), cpusetLock_(os.simulation(), 1)
{}

sim::Task<Container *>
ContainerManager::create(const std::string &id)
{
    std::string owned_id = id;
    co_await startCost();
    co_return &add(owned_id);
}

sim::Simulation::DelayAwaiter
ContainerManager::startCost()
{
    return os_.swDelay(calib::kContainerStartCost);
}

Container &
ContainerManager::add(std::string_view id)
{
    std::unique_ptr<Container> c = spare_.take();
    if (c == nullptr)
        c = std::make_unique<Container>();
    c->id_.assign(id);
    c->state_ = ContainerState::Running;
    containers_.push_back(std::move(c));
    return *containers_.back();
}

sim::Simulation::DelayAwaiter
ContainerManager::reconfigureCost(Container &container)
{
    MOLECULE_ASSERT(container.state_ == ContainerState::Running,
                    "attach to non-running container '%s'",
                    container.id().c_str());
    ++container.holds_;
    return os_.swDelay(calib::kNamespaceReconfigCost);
}

void
ContainerManager::settle(Container &container, Process &proc)
{
    --container.holds_;
    if (!container.retired_)
        container.procs_.push_back(&proc);
    else if (container.holds_ == 0)
        graveyard_.release(container);
}

sim::Simulation::DelayAwaiter
ContainerManager::cpusetHoldCost()
{
    // The cpuset update runs under the kernel's global lock; the lock
    // *hold* time is what differs between the stock semaphore path and
    // the paper's mutex patch (Fig 11-a "Cpuset opt"), and holding it
    // long is also what makes concurrent startups convoy.
    return os_.swDelay(cpusetMode_ == CpusetMode::StockSemaphore
                           ? calib::kCpusetAttachSemaphore
                           : calib::kCpusetAttachMutex);
}

sim::Task<>
ContainerManager::attach(Container &container, Process &proc,
                         obs::SpanContext ctx)
{
    obs::Span span(ctx, "os.attach", obs::Layer::Os, os_.pu().id());
    co_await reconfigureCost(container);
    co_await lockCpuset();
    co_await cpusetHoldCost();
    unlockCpuset();
    settle(container, proc);
}

sim::Task<>
ContainerManager::destroy(Container &container)
{
    co_await deleteCost(container);
    reap(container);
}

sim::Simulation::DelayAwaiter
ContainerManager::deleteCost(Container &container)
{
    ++container.holds_;
    return os_.swDelay(calib::kContainerDeleteCost);
}

void
ContainerManager::reap(Container &container)
{
    if (container.holds_ > 0)
        --container.holds_;
    if (container.retired_) {
        if (container.holds_ == 0)
            graveyard_.release(container);
        return;
    }
    container.state_ = ContainerState::Stopped;
    container.procs_.clear();
    for (auto it = containers_.begin(); it != containers_.end(); ++it) {
        if (it->get() == &container) {
            spare_.put(std::move(*it));
            containers_.erase(it);
            break;
        }
    }
}

void
ContainerManager::retire(Container &container)
{
    if (container.retired_)
        return;
    container.retired_ = true;
    container.state_ = ContainerState::Stopped;
    container.procs_.clear();
    for (auto it = containers_.begin(); it != containers_.end(); ++it) {
        if (it->get() == &container) {
            if (container.holds_ > 0)
                graveyard_.bury(std::move(*it));
            containers_.erase(it);
            return;
        }
    }
}

Container *
ContainerManager::find(const std::string &id)
{
    for (auto &c : containers_)
        if (c->id() == id)
            return c.get();
    return nullptr;
}

} // namespace molecule::os
