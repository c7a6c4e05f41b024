#include "sandbox/runc.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::sandbox {

namespace calib = hw::calib;

const char *
toString(StartupPath p)
{
    switch (p) {
      case StartupPath::ColdBoot:
        return "cold-boot";
      case StartupPath::CforkNaive:
        return "cfork-naive";
      case StartupPath::CforkFuncContainer:
        return "cfork-func-container";
      case StartupPath::CforkCpusetOpt:
        return "cfork-cpuset-opt";
    }
    return "?";
}

sim::Task<bool>
RuncRuntime::prepareTemplate(const FunctionImage &image)
{
    const Language lang = image.language;
    if (templates_.count(lang))
        co_return true;

    TemplateState tmpl;
    tmpl.image = &image;
    tmpl.container =
        co_await os_.containers().create("tmpl-" + std::string(
            sandbox::toString(lang)));
    tmpl.proc = co_await os_.spawnProcess(
        "template-" + std::string(sandbox::toString(lang)), 0);
    if (!tmpl.proc)
        co_return false;
    // Boot the forkable language runtime inside the template.
    co_await os_.swDelay(runtimeColdStart(lang));
    tmpl.runtimeRegion = tmpl.proc->addressSpace().mapPrivate(
        "runtime/" + std::string(sandbox::toString(lang)),
        image.mem.runtimeShared);
    if (!tmpl.runtimeRegion)
        co_return false;
    if (image.mem.templateExtra > 0 &&
        !tmpl.proc->addressSpace().mapPrivate("template-extra",
                                              image.mem.templateExtra)) {
        co_return false;
    }
    templates_[lang] = std::move(tmpl);
    co_return true;
}

bool
RuncRuntime::hasTemplate(Language lang) const
{
    return templates_.count(lang) != 0;
}

os::Process *
RuncRuntime::templateProcess(Language lang)
{
    auto it = templates_.find(lang);
    return it == templates_.end() ? nullptr : it->second.proc;
}

sim::Task<int>
RuncRuntime::prewarmFunctionContainers(int n)
{
    int made = 0;
    for (int i = 0; i < n; ++i) {
        os::Container *c = co_await os_.containers().create(
            "pool-" + std::to_string(nextId_++));
        if (!c)
            break;
        pool_.push_back(c);
        ++made;
    }
    co_return made;
}

Instance *
RuncRuntime::addInstance(std::string_view id, const FunctionImage &image)
{
    auto init = [id](std::unique_ptr<Instance> &inst) {
        if (inst == nullptr) {
            inst = std::make_unique<Instance>();
        } else {
            std::string keep = std::move(inst->id); // and its buffer
            *inst = Instance{};
            inst->id = std::move(keep);
        }
        inst->id.assign(id);
        return std::string_view(inst->id);
    };
    const auto [row, added] = spareRows_.insertInto(instances_, init);
    if (!added)
        return nullptr;
    Instance *inst = row->second.get();
    inst->funcId = image.funcId;
    inst->image = &image;
    inst->state = SandboxState::Creating;
    return inst;
}

sim::Task<bool>
RuncRuntime::create(Instance &inst, obs::SpanContext ctx)
{
    if (path_ != StartupPath::ColdBoot &&
        hasTemplate(inst.image->language))
        return createCfork(inst, ctx);
    return createCold(inst, ctx);
}

sim::Task<bool>
RuncRuntime::createCold(Instance &inst, obs::SpanContext ctx)
{
    const int pu = os_.pu().id();
    obs::Span span(ctx, "sandbox.cold-boot", obs::Layer::Sandbox, pu);
    span.setDetail(inst.image->funcId.c_str());
    // Baseline path: fresh container, cold language runtime, imports.
    co_await os_.containers().startCost();
    inst.container = &os_.containers().add(inst.id);
    {
        obs::Span st(span.ctx(), "os.spawn", obs::Layer::Os, pu);
        st.setDetail(inst.image->funcId.c_str());
        co_await os_.spawnCost();
        inst.proc = os_.finishSpawn(inst.funcId, 0);
    }
    if (!inst.proc)
        co_return abandon(inst);
    co_await os_.swDelay(runtimeColdStart(inst.image->language) +
                         inst.image->importCost);
    label_.assign(inst.funcId);
    label_ += "/cold";
    if (!inst.proc->addressSpace().mapPrivate(
            label_, inst.image->mem.coldTotal()))
        co_return abandon(inst);
    co_await os_.swDelay(calib::kInstanceSettleCost);
    inst.state = SandboxState::Created;
    co_return true;
}

sim::Task<bool>
RuncRuntime::createCfork(Instance &inst, obs::SpanContext ctx)
{
    const int pu = os_.pu().id();
    obs::Span span(ctx, "sandbox.cfork", obs::Layer::Sandbox, pu);
    span.setDetail(inst.image->funcId.c_str());
    TemplateState &tmpl = templates_.at(inst.image->language);

    // 1. The forkable runtime merges the template's threads into one
    //    so Unix fork propagates the full state (§4.2).
    tmpl.proc->setThreads(1);
    {
        obs::Span st(span.ctx(), "cfork.thread-merge",
                     obs::Layer::Sandbox, pu);
        co_await os_.swDelay(calib::kThreadMergeCost);
    }

    // 2. fork() the template: all regions are COW-shared.
    {
        obs::Span st(span.ctx(), "os.fork", obs::Layer::Os, pu);
        st.setDetail(inst.id.c_str());
        co_await os_.forkCost(*tmpl.proc);
        inst.proc = &os_.finishFork(*tmpl.proc, inst.id);
    }
    inst.forked = true;

    // 3. Children do not keep template-only state; they get their own
    //    private heap instead.
    if (!mapChildHeap(inst))
        co_return abandon(inst);

    // 4. Function container: fresh (naive) or pre-initialized.
    os::ContainerManager &containers = os_.containers();
    if (path_ == StartupPath::CforkNaive || pool_.empty()) {
        obs::Span st(span.ctx(), "cfork.container", obs::Layer::Sandbox,
                     pu);
        co_await containers.startCost();
        inst.container = &containers.add(inst.id);
    } else {
        inst.container = pool_.front();
        pool_.pop_front();
    }

    // 5. Reconfigure namespaces + cpuset cgroup attach. The cpuset
    //    lock discipline is the CpusetOpt ablation knob.
    containers.setCpusetMode(path_ == StartupPath::CforkCpusetOpt
                                 ? os::CpusetMode::MutexPatch
                                 : os::CpusetMode::StockSemaphore);
    {
        obs::Span st(span.ctx(), "os.attach", obs::Layer::Os, pu);
        os::Container &box = *inst.container;
        os::Process &child = *inst.proc;
        co_await containers.reconfigureCost(box);
        co_await containers.lockCpuset();
        co_await containers.cpusetHoldCost();
        containers.unlockCpuset();
        containers.settle(box, child);
    }

    // 6. Child re-expands its threads, loads the function's code and
    //    connects back to the runtime.
    {
        obs::Span st(span.ctx(), "cfork.expand-load",
                     obs::Layer::Sandbox, pu);
        co_await os_.swDelay(calib::kThreadExpandCost +
                             inst.image->funcLoadCost +
                             calib::kInstanceSettleCost);
    }
    inst.state = SandboxState::Created;
    co_return true;
}

bool
RuncRuntime::mapChildHeap(Instance &inst)
{
    os::AddressSpace &space = inst.proc->addressSpace();
    if (auto extra = space.findRegion("template-extra"))
        space.unmap(extra);
    label_.assign(inst.funcId);
    label_ += "/heap";
    return space.mapPrivate(label_, inst.image->mem.privateBytes) !=
           nullptr;
}

bool
RuncRuntime::abandon(Instance &inst)
{
    if (inst.proc != nullptr) {
        os_.exitProcess(*inst.proc);
        inst.proc = nullptr;
    }
    if (inst.container != nullptr) {
        os_.containers().reap(*inst.container);
        inst.container = nullptr;
    }
    eraseInstance(inst);
    return false;
}

RuncRuntime::Start
RuncRuntime::start(Instance &inst)
{
    return Start(inst, os_.syscall());
}

RuncRuntime::Teardown
RuncRuntime::destroy(Instance &inst)
{
    if (inst.proc != nullptr) {
        os_.exitProcess(*inst.proc);
        inst.proc = nullptr;
    }
    os::Container *box = inst.container;
    return Teardown(*this, inst, box,
                    box != nullptr
                        ? os_.containers().deleteCost(*box)
                        : os_.simulation().delay(sim::SimTime(0)));
}

void
RuncRuntime::finishDestroy(Instance &inst, os::Container *container)
{
    if (container != nullptr)
        os_.containers().reap(*container);
    eraseInstance(inst);
}

sim::Task<core::Status>
RuncRuntime::invoke(const std::string &sandboxId,
                    sim::SimTime hostExecCost, obs::SpanContext ctx)
{
    Instance *inst = find(sandboxId);
    MOLECULE_ASSERT(inst != nullptr, "invoking unknown sandbox '%s'",
                    sandboxId.c_str());
    return invoke(*inst, hostExecCost, ctx);
}

sim::Task<core::Status>
RuncRuntime::invoke(Instance &inst, sim::SimTime hostExecCost,
                    obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.exec", obs::Layer::Sandbox,
                   os_.pu().id());
    if (inst.dead) {
        span.setDetail("dead-on-entry");
        co_return core::Status(inst.deathCause,
                               "sandbox '" + inst.id +
                                   "' killed before execution",
                               os_.pu().id());
    }
    MOLECULE_ASSERT(inst.state == SandboxState::Running,
                    "invoking non-running sandbox '%s'",
                    inst.id.c_str());

    if (inst.forked && !inst.cowSettled) {
        // First run dirties part of the shared runtime: COW faults
        // (the Fig 14-b warm-boot penalty of cfork'd instances).
        auto region = inst.proc->addressSpace().findRegion(
            "runtime/" +
            std::string(sandbox::toString(inst.image->language)));
        if (region) {
            const auto bytes = std::uint64_t(
                double(region->bytes()) * inst.image->cowTouchFraction);
            const auto pages =
                inst.proc->addressSpace().touchCow(region, bytes);
            if (pages > 0) {
                obs::Span st(span.ctx(), "sandbox.cow-settle",
                             obs::Layer::Sandbox, os_.pu().id());
                st.setArg(std::int64_t(pages));
                co_await os_.swDelay(calib::kCowFaultPerPage *
                                     double(pages));
            }
        }
        inst.cowSettled = true;
    }
    {
        // ProcessingUnit::compute, inline: no nested frame.
        obs::Span hwspan(span.ctx(), "hw.compute", obs::Layer::Hw,
                         os_.pu().id());
        co_await os_.pu().acquireCore();
        co_await os_.pu().occupyCore(hostExecCost);
    }
    // An injected kill may have landed while the body was executing:
    // the CPU time is spent, the result is lost.
    if (inst.dead) {
        span.setDetail("killed-mid-exec");
        co_return core::Status(inst.deathCause,
                               "sandbox '" + inst.id +
                                   "' killed during execution",
                               os_.pu().id());
    }
    co_return core::Status();
}

int
RuncRuntime::oomKill(const std::string &funcId)
{
    int killed = 0;
    for (auto &[id, inst] : instances_) {
        if (inst->funcId != funcId || inst->dead)
            continue;
        inst->dead = true;
        inst->deathCause = core::Errc::SandboxOomKilled;
        inst->state = SandboxState::Stopped;
        if (inst->proc) {
            os_.exitProcess(*inst->proc);
            inst->proc = nullptr;
        }
        // The container record is retired, not recycled: a killed
        // instance's cgroup is torn down by the kernel, not reused.
        if (inst->container != nullptr) {
            os_.containers().retire(*inst->container);
            inst->container = nullptr;
        }
        ++killed;
    }
    return killed;
}

void
RuncRuntime::crashPurge()
{
    // LocalOs::crashReset() reaps the processes, so exiting them here
    // would exit them twice: only their pointers are dropped. Every
    // container died with the PU, so its row is retired.
    os::ContainerManager &containers = os_.containers();
    for (auto &[id, inst] : instances_) {
        if (!inst->dead) {
            inst->dead = true;
            inst->deathCause = core::Errc::PuCrashed;
        }
        inst->state = SandboxState::Stopped;
        inst->proc = nullptr;
        if (inst->container != nullptr)
            containers.retire(*inst->container);
        inst->container = nullptr;
    }
    for (auto &[lang, tmpl] : templates_)
        if (tmpl.container != nullptr)
            containers.retire(*tmpl.container);
    templates_.clear();
    for (os::Container *c : pool_)
        containers.retire(*c);
    pool_.clear();
}

void
RuncRuntime::eraseInstance(Instance &inst)
{
    const auto it = instances_.find(inst.id);
    MOLECULE_ASSERT(it != instances_.end() && it->second.get() == &inst,
                    "instance '%s' has no row", inst.id.c_str());
    if (inst.dead)
        instances_.erase(it);
    else
        spareRows_.put(instances_.extract(it));
}

Instance *
RuncRuntime::find(const std::string &sandboxId)
{
    auto it = instances_.find(sandboxId);
    return it == instances_.end() ? nullptr : it->second.get();
}

std::uint64_t
RuncRuntime::instanceRss(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    return inst && inst->proc ? inst->proc->addressSpace().rss() : 0;
}

double
RuncRuntime::instancePss(const std::string &sandboxId)
{
    Instance *inst = find(sandboxId);
    return inst && inst->proc ? inst->proc->addressSpace().pss() : 0.0;
}

std::uint64_t
RuncRuntime::templateRss(Language lang)
{
    os::Process *proc = templateProcess(lang);
    return proc ? proc->addressSpace().rss() : 0;
}

} // namespace molecule::sandbox
