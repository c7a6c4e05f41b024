#include "core/molecule.hh"

#include <algorithm>

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::core {

namespace calib = hw::calib;

Molecule::Molecule(hw::Computer &computer, MoleculeOptions options)
    : computer_(computer), options_(options)
{
    dep_ = std::make_unique<Deployment>(computer_);
    startup_ = std::make_unique<StartupManager>(*dep_, registry_,
                                                options_.startup);
    scheduler_ = std::make_unique<Scheduler>(*dep_, registry_);
    scheduler_->setStartupManager(startup_.get());
    scheduler_->installPlacement(options_.placement.make());
    dag_ = std::make_unique<DagEngine>(*dep_, *startup_, registry_);
    if (options_.faults != nullptr) {
        dep_->attachFaults(options_.faults);
        recovery_ = std::make_unique<RecoveryManager>(
            *dep_, *startup_, options_.tracer);
        options_.faults->addListener(recovery_.get());
    }
}

Molecule::~Molecule()
{
    if (options_.faults != nullptr && recovery_ != nullptr)
        options_.faults->removeListener(recovery_.get());
}

void
Molecule::registerCpuFunction(const std::string &name,
                              const std::vector<hw::PuType> &kinds)
{
    FunctionDef def;
    def.name = name;
    def.cpuWork = &catalog_.cpu(name);
    for (auto kind : kinds) {
        // DPU execution is priced below host CPU (§4.1).
        def.profiles.push_back(Profile{
            kind, kind == hw::PuType::Dpu ? 0.6 : 1.0});
    }
    registry_.add(std::move(def));
}

void
Molecule::registerFpgaFunction(const std::string &name,
                               std::uint64_t units)
{
    FunctionDef def;
    def.name = name;
    def.fpgaWork = &catalog_.fpga(name);
    def.fpgaUnits = units;
    // FPGA is the most expensive profile (§4.1).
    def.profiles.push_back(Profile{hw::PuType::FpgaHost, 3.0});
    registry_.add(std::move(def));
}

void
Molecule::registerGpuFunction(const std::string &name,
                              sim::SimTime kernelTime,
                              std::uint64_t ioBytes)
{
    FunctionDef def;
    def.name = name;
    def.gpuKernelTime = kernelTime;
    def.gpuIoBytes = ioBytes;
    def.profiles.push_back(Profile{hw::PuType::GpuHost, 2.0});
    registry_.add(std::move(def));
}

void
Molecule::start()
{
    if (started_)
        return;
    started_ = true;
    auto boot = [](StartupManager *s, int managerPu) -> sim::Task<> {
        co_await s->bootstrap(managerPu);
    };
    simulation().spawn(boot(startup_.get(), options_.managerPu));
    simulation().run();
}

int
Molecule::admitAttempt(const FunctionDef &def, const InvokeOptions &opts,
                       int attempt, const obs::PuList &tried,
                       obs::SpanContext rootCtx, Error &err)
{
    // Pure control-plane computation on the manager PU before any
    // simulated time passes.
    obs::Span admit(rootCtx, "gateway.admit", obs::Layer::Core,
                    options_.managerPu);
    obs::Span place(rootCtx, "sched.place", obs::Layer::Core,
                    options_.managerPu);
    const int requested =
        attempt == 1 || !opts.failover ? opts.pu : -1;
    const Expected<int> admitted = scheduler_->admit(
        def, requested,
        opts.failover ? tried.view() : std::span<const int>{});
    if (!admitted.ok()) {
        err = admitted.error();
        return -1;
    }
    place.setArg(admitted.value());
    return admitted.value();
}

Error
Molecule::attemptError(Errc code, const char *before,
                       const FunctionDef &def, const char *after, int pu)
{
    return Error(code, before + ("'" + def.name + "'") + after, pu);
}

bool
Molecule::noteFailedAttempt(const Error &err, obs::PuList &tried)
{
    if (err.pu() >= 0 && !tried.contains(err.pu()))
        tried.push_back(err.pu());
    if (err.code() == Errc::DeadlineExceeded)
        return false; // The budget is gone; a retry cannot make it.
    if (options_.tracer != nullptr)
        options_.tracer->metrics().counter("invoke.attempt_failed").inc();
    return true;
}

sim::Simulation::DelayAwaiter
Molecule::dispatchCost(const FunctionDef &def, int pu)
{
    const bool isNode =
        def.cpuWork->image.language == sandbox::Language::Node;
    const hw::ProcessingUnit &unit = dep_->osOn(pu).pu();
    if (options_.dagMode == DagCommMode::BaselineHttp) {
        return simulation().delay(unit.netCost(
            calib::kHttpEdgeEndpointCost +
            (isNode ? calib::kExpressDispatch : calib::kFlaskDispatch)));
    }
    return simulation().delay(unit.netCost(
        calib::kIpcSerializeCost + (isNode ? calib::kFifoDispatchNode
                                           : calib::kFifoDispatchPython)));
}

obs::InvocationRecord
Molecule::completed(const FunctionDef &def, const AcquiredInstance &acq,
                    int attempt, const obs::PuList &tried,
                    sim::SimTime communication, sim::SimTime execution,
                    sim::SimTime endToEnd, std::uint64_t traceId)
{
    obs::InvocationRecord rec;
    rec.function = def.name;
    rec.pu = acq.pu;
    rec.coldStart = acq.cold;
    rec.startup = acq.startupTime;
    rec.communication = communication;
    rec.execution = execution;
    rec.endToEnd = endToEnd;
    rec.traceId = traceId;
    rec.attempts = attempt;
    rec.pusTried = tried;
    rec.failedOver = !tried.empty() && !tried.contains(acq.pu);
    return rec;
}

Error
Molecule::finalError(const FunctionDef &def, const Error &last,
                     int attempts, const obs::PuList &tried)
{
    if (options_.tracer != nullptr)
        options_.tracer->metrics().counter("invoke.failed").inc();
    if (attempts <= 1 || last.code() == Errc::DeadlineExceeded) {
        Error out = last;
        out.withPusTried(tried.toVector());
        return out;
    }
    Error out(Errc::RetriesExhausted, "'" + def.name + "' failed after " +
                                          std::to_string(attempts) +
                                          " attempts");
    out.causedBy(last)
        .withRetries(attempts - 1)
        .withPusTried(tried.toVector());
    return out;
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::notFound(const std::string &fn)
{
    co_return Error(Errc::NotFound, "unknown function '" + fn + "'");
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::invoke(const std::string &fn, const InvokeOptions &opts)
{
    const FunctionDef *def = registry_.findPtr(fn);
    if (def == nullptr)
        return notFound(fn);
    return invoke(*def, opts);
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::invoke(const FunctionDef &fn, const InvokeOptions &opts)
{
    // One frame covers every attempt; the non-suspending steps are
    // plain member functions so this frame stays in the FramePool
    // (DESIGN.md §4b). Every exit after noteDispatch balances it with
    // noteComplete: load-aware placement reads the in-flight count.
    const FunctionDef *def = &fn;
    const InvokeOptions o = opts;
    MOLECULE_ASSERT(def->cpuWork != nullptr,
                    "'%s' is accelerator-only; use invokeFpga",
                    def->name.c_str());
    auto &sim = simulation();
    const int managerPu = options_.managerPu;

    // Root span of this invocation's trace: all attempts (and the
    // backoff pauses between them) nest under it.
    obs::Span root = obs::Span::root(options_.tracer, "invoke",
                                     obs::Layer::Core, managerPu);
    root.setDetail(def->name.c_str());

    const sim::SimTime t0 = sim.now();
    const int maxAttempts = o.maxAttempts < 1 ? 1 : o.maxAttempts;
    obs::PuList tried;
    Error lastErr;
    int attempt = 1;
    for (; attempt <= maxAttempts; ++attempt) {
        if (attempt > 1) {
            obs::Span backoff(root.ctx(), "retry.backoff",
                              obs::Layer::Core, managerPu);
            backoff.setArg(attempt);
            if (options_.tracer != nullptr)
                options_.tracer->metrics().counter("invoke.retry").inc();
            co_await sim.delay(o.retryBackoff);
        }

        const int target =
            admitAttempt(*def, o, attempt, tried, root.ctx(), lastErr);
        if (target < 0) {
            if (!noteFailedAttempt(lastErr, tried))
                break;
            continue;
        }
        scheduler_->noteDispatch(target);

        AcquiredInstance acq = co_await startup_->acquire(
            *def, target, managerPu, root.ctx());
        if (acq.instance == nullptr || dep_->puDown(target)) {
            scheduler_->noteComplete(target);
            lastErr = acq.instance == nullptr
                          ? attemptError(Errc::NoMemory,
                                         "admission failed for ", *def,
                                         "", target)
                          : attemptError(Errc::PuCrashed, "", *def,
                                         " lost its PU during startup",
                                         target);
            if (!noteFailedAttempt(lastErr, tried))
                break;
            continue;
        }
        if (o.deadline > sim::SimTime(0) && sim.now() - t0 > o.deadline) {
            if (!acq.instance->dead)
                co_await startup_->release(*def, acq);
            scheduler_->noteComplete(target);
            lastErr = attemptError(Errc::DeadlineExceeded, "", *def,
                                   " missed its deadline after startup",
                                   target);
            noteFailedAttempt(lastErr, tried);
            break;
        }

        // Request delivery from the runtime into the instance.
        const sim::SimTime commStart = sim.now();
        {
            obs::Span comm(root.ctx(), "comm", obs::Layer::Core, target);
            if (managerPu != target) {
                co_await dep_->shimNet().transfer(
                    managerPu, target, def->cpuWork->msgBytes,
                    comm.ctx());
            }
            obs::Span disp(comm.ctx(), "os.dispatch", obs::Layer::Os,
                           target);
            co_await dispatchCost(*def, target);
        }
        const sim::SimTime communication = sim.now() - commStart;

        if (o.deadline > sim::SimTime(0) && sim.now() - t0 > o.deadline) {
            if (!acq.instance->dead && !dep_->puDown(target))
                co_await startup_->release(*def, acq);
            scheduler_->noteComplete(target);
            lastErr = attemptError(Errc::DeadlineExceeded, "", *def,
                                   " missed its deadline before execution",
                                   target);
            noteFailedAttempt(lastErr, tried);
            break;
        }

        const sim::SimTime execStart = sim.now();
        const sim::SimTime exec =
            acq.cold ? def->cpuWork->execCost * def->cpuWork->coldExecFactor
                     : def->cpuWork->execCost;
        const core::Status st = co_await dep_->runcOn(target).invoke(
            *acq.instance, exec, root.ctx());
        scheduler_->noteComplete(target);
        if (!st.ok()) {
            lastErr = st.error();
            if (!noteFailedAttempt(lastErr, tried))
                break;
            continue;
        }
        const sim::SimTime execution = sim.now() - execStart;
        const sim::SimTime endToEnd = sim.now() - t0;
        const std::uint64_t traceId = root.traceId();
        // The measured window ends here; the keep-alive release below
        // is runtime bookkeeping and must not stretch the root span.
        root.finish();
        if (!acq.instance->dead && !dep_->puDown(target))
            co_await startup_->release(*def, acq);
        co_return completed(*def, acq, attempt, tried, communication,
                            execution, endToEnd, traceId);
    }
    co_return finalError(*def, lastErr, std::min(attempt, maxAttempts),
                         tried);
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::invoke(const std::string &fn, int pu)
{
    InvokeOptions opts;
    opts.pu = pu;
    co_return co_await invoke(fn, opts);
}

template <typename T>
Expected<T>
Molecule::runSync(sim::Task<Expected<T>> task, const std::string &what)
{
    // Watchdog slot: if the simulation drains with the task still
    // pending — some fault left it blocked forever — the Hang error is
    // what the caller sees instead of a silent garbage record.
    Expected<T> out(Error(
        Errc::Hang, what + " did not complete before the simulation drained"));
    auto run = [](sim::Task<Expected<T>> t,
                  Expected<T> *slot) -> sim::Task<> {
        Expected<T> r = co_await std::move(t);
        *slot = std::move(r);
    };
    simulation().spawn(run(std::move(task), &out));
    simulation().run();
    return out;
}

Expected<obs::InvocationRecord>
Molecule::invokeSync(const std::string &fn, const InvokeOptions &opts)
{
    return runSync(invoke(fn, opts), "invocation of '" + fn + "'");
}

Expected<obs::InvocationRecord>
Molecule::invokeSync(const std::string &fn, int pu)
{
    InvokeOptions opts;
    opts.pu = pu;
    return invokeSync(fn, opts);
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::invokeFpga(const std::string &fn, int fpgaIndex,
                     std::uint64_t units, const InvokeOptions &opts)
{
    std::string owned_fn = fn;
    InvokeOptions owned_opts = opts;
    const int idx = fpgaIndex;
    const std::uint64_t owned_units = units;
    const FunctionDef *def = registry_.findPtr(owned_fn);
    if (def == nullptr)
        co_return Error(Errc::NotFound,
                        "unknown function '" + owned_fn + "'");
    MOLECULE_ASSERT(def->fpgaWork != nullptr, "'%s' has no FPGA profile",
                    owned_fn.c_str());
    auto &sim = simulation();
    const int hostPu = dep_->computer().fpga(idx).hostPuId();

    obs::Span root = obs::Span::root(options_.tracer, "invoke",
                                     obs::Layer::Core, hostPu);
    root.setDetail(owned_fn.c_str());

    const sim::SimTime t0 = sim.now();
    const int maxAttempts =
        owned_opts.maxAttempts < 1 ? 1 : owned_opts.maxAttempts;
    Error lastErr;
    int attemptsMade = 0;

    // Reconfiguration failures are transient and count-limited, so
    // retries re-attempt on the same card — no cross-card failover.
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        attemptsMade = attempt;
        if (attempt > 1) {
            obs::Span backoff(root.ctx(), "retry.backoff",
                              obs::Layer::Core, hostPu);
            backoff.setArg(attempt);
            if (options_.tracer != nullptr)
                options_.tracer->metrics()
                    .counter("invoke.retry")
                    .inc();
            co_await sim.delay(owned_opts.retryBackoff);
        }
        if (owned_opts.deadline > sim::SimTime(0) &&
            sim.now() - t0 > owned_opts.deadline) {
            lastErr = Error(Errc::DeadlineExceeded,
                            "'" + owned_fn +
                                "' missed its deadline at admission",
                            hostPu);
            break;
        }
        if (dep_->puDown(hostPu)) {
            lastErr = Error(Errc::PuCrashed,
                            "FPGA host PU is down", hostPu);
            continue;
        }

        Expected<AcquiredFpga> acq =
            co_await startup_->acquireFpga(*def, idx, root.ctx());
        if (!acq.ok()) {
            lastErr = acq.error();
            continue;
        }

        obs::InvocationRecord rec;
        rec.function = owned_fn;
        rec.pu = hostPu;
        rec.traceId = root.traceId();
        rec.attempts = attempt;
        rec.coldStart = acq.value().cold;
        rec.startup = acq.value().startupTime;

        const auto execStart = sim.now();
        co_await dep_->runf(idx).invoke(
            acq.value().sandboxId,
            def->fpgaWork->kernelTime(owned_units),
            def->fpgaWork->dmaInBytes(owned_units),
            def->fpgaWork->dmaOutBytes(owned_units), false, false,
            root.ctx());
        rec.execution = sim.now() - execStart;
        rec.endToEnd = sim.now() - t0;
        co_return rec;
    }

    if (options_.tracer != nullptr)
        options_.tracer->metrics().counter("invoke.failed").inc();
    if (attemptsMade <= 1 || lastErr.code() == Errc::DeadlineExceeded)
        co_return lastErr;
    Error out(Errc::RetriesExhausted,
              "'" + owned_fn + "' failed after " +
                  std::to_string(attemptsMade) + " attempts");
    out.causedBy(lastErr).withRetries(attemptsMade - 1);
    co_return out;
}

Expected<obs::InvocationRecord>
Molecule::invokeFpgaSync(const std::string &fn, int fpgaIndex,
                         std::uint64_t units, const InvokeOptions &opts)
{
    return runSync(invokeFpga(fn, fpgaIndex, units, opts),
                   "invocation of '" + fn + "'");
}

sim::Task<Expected<obs::InvocationRecord>>
Molecule::invokeGpu(const std::string &fn, int gpuIndex)
{
    std::string owned_fn = fn;
    const int idx = gpuIndex;
    const FunctionDef *def = registry_.findPtr(owned_fn);
    if (def == nullptr)
        co_return Error(Errc::NotFound,
                        "unknown function '" + owned_fn + "'");
    MOLECULE_ASSERT(def->gpuKernelTime > sim::SimTime(0),
                    "'%s' has no GPU profile", owned_fn.c_str());
    auto &sim = simulation();
    obs::InvocationRecord rec;
    rec.function = owned_fn;
    rec.pu = dep_->computer().gpuDev(idx).hostPuId();

    obs::Span root = obs::Span::root(options_.tracer, "invoke",
                                     obs::Layer::Core, rec.pu);
    root.setDetail(owned_fn.c_str());
    rec.traceId = root.traceId();

    if (dep_->puDown(rec.pu))
        co_return Error(Errc::PuCrashed, "GPU host PU is down",
                        rec.pu);

    const auto t0 = sim.now();
    AcquiredFpga acq =
        co_await startup_->acquireGpu(*def, idx, root.ctx());
    rec.coldStart = acq.cold;
    rec.startup = acq.startupTime;

    const auto execStart = sim.now();
    co_await dep_->rung(idx).invoke(acq.sandboxId, def->gpuKernelTime,
                                    def->gpuIoBytes, def->gpuIoBytes,
                                    root.ctx());
    rec.execution = sim.now() - execStart;
    rec.endToEnd = sim.now() - t0;
    co_return rec;
}

Expected<obs::InvocationRecord>
Molecule::invokeGpuSync(const std::string &fn, int gpuIndex)
{
    return runSync(invokeGpu(fn, gpuIndex), "invocation of '" + fn + "'");
}

// `placement` is moved to a local at once, but its by-value frame
// slot remains (task.hh rule 1). The fleet benchmark calls this
// overload as it is; it goes with the single invoke entry point.
sim::Task<Expected<obs::ChainRecord>> // lint:allow(coroutine-param)
Molecule::invokeChain(const ChainSpec &spec, std::vector<int> placement,
                      bool prewarm)
{
    std::vector<int> owned_placement = std::move(placement);
    if (owned_placement.empty())
        owned_placement = scheduler_->placeChain(spec);
    // Past this point only the cached plan is read, and it outlives
    // the call: @p spec is not copied.
    const ChainPlan &plan =
        dag_->plan(spec, owned_placement, options_.managerPu);
    for (int pu : plan.placement) {
        if (dep_->puDown(pu))
            co_return Error(Errc::PuCrashed,
                            "chain '" + plan.spec.name +
                                "' placed on a down PU",
                            pu);
    }
    obs::Span root = obs::Span::root(options_.tracer, "chain",
                                     obs::Layer::Core,
                                     options_.managerPu);
    root.setDetail(plan.spec.name.c_str());
    obs::ChainRecord record = co_await dag_->run(
        plan, options_.dagMode, prewarm, root.ctx());
    co_return record;
}

Expected<obs::ChainRecord>
Molecule::invokeChainSync(const ChainSpec &spec,
                          std::vector<int> placement, bool prewarm)
{
    return runSync(invokeChain(spec, std::move(placement), prewarm),
                   "chain '" + spec.name + "'");
}

} // namespace molecule::core
