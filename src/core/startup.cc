#include "core/startup.hh"

#include <algorithm>
#include <charconv>

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::core {

namespace calib = hw::calib;

StartupManager::StartupManager(Deployment &dep,
                               const FunctionRegistry &registry,
                               StartupOptions options)
    : dep_(dep), registry_(registry), options_(options),
      strategy_(options_.keepAlive.make()),
      puCount_(std::size_t(dep.computer().puCount())),
      warmOnPu_(puCount_, 0)
{}

StartupManager::Slot &
StartupManager::slot(FnId fn, int pu)
{
    MOLECULE_ASSERT(fn != kNoFn, "function is not registered");
    if (fn >= slots_.size())
        slots_.resize(std::size_t(fn) + 1);
    if (slots_[fn] == nullptr)
        slots_[fn] = std::make_unique<Slot[]>(puCount_);
    return slots_[fn][std::size_t(pu)];
}

const StartupManager::Slot *
StartupManager::findSlot(FnId fn, int pu) const
{
    return fn < slots_.size() && slots_[fn] != nullptr
               ? &slots_[fn][std::size_t(pu)]
               : nullptr;
}

void
StartupManager::installKeepAlive(
    std::unique_ptr<KeepAliveStrategy> strategy)
{
    strategy_ = strategy != nullptr ? std::move(strategy)
                                    : options_.keepAlive.make();
}

WarmEntryView
StartupManager::entryView(FnId fn, int pu, const WarmEntry &entry) const
{
    WarmEntryView v;
    v.fn = registry_.name(fn);
    v.fnId = fn;
    v.pu = pu;
    v.lastUsed = entry.lastUsed;
    v.freq = entry.freq;
    v.costMs = entry.costMs;
    v.sizeMb = entry.sizeMb;
    v.parkPriority = entry.parkPriority;
    return v;
}

void
StartupManager::noteEviction(FnId fn, int pu, const WarmEntry &victim)
{
    strategy_->onEvict(entryView(fn, pu, victim));
    ++evictions_;
    sim::Fingerprint id;
    id.mixBytes(victim.instance->id);
    evictFp_.mix(id.digest());
    evictFp_.mix(std::uint64_t(pu));
    evictFp_.mix(std::uint64_t(evictions_));
}

sim::Task<>
StartupManager::bootstrap(int managerPu)
{
    if (bootstrapped_)
        co_return;
    bootstrapped_ = true;

    // Launch an executor on every other general-purpose PU via xSpawn
    // (Figure 6). The executor program is a thin command loop.
    dep_.shimNet().registerProgram("molecule-executor",
                                   [](xpu::XpuShim &, os::Process &) {});
    os::Process *manager = co_await dep_.osOn(managerPu).spawnProcess(
        "molecule-runtime", 32 << 20);
    MOLECULE_ASSERT(manager != nullptr, "manager spawn failed");
    xpu::XpuClient client(dep_.shimOn(managerPu), *manager);
    for (int pu : dep_.generalPus()) {
        if (pu == managerPu)
            continue;
        std::vector<xpu::CapGrant> capv;
        auto r = co_await client.xspawn(pu, "molecule-executor", capv);
        MOLECULE_ASSERT(r.ok(), "executor spawn on PU %d failed: %s", pu,
                        r.error().toString().c_str());
    }

    if (!options_.useCfork)
        co_return;

    // Prepare one template per language per PU plus the container
    // pools, concurrently across PUs.
    sim::Join preps(dep_.simulation());
    for (int pu : dep_.generalPus())
        preps.spawn(prepareTemplates(pu));
    co_await preps.wait();
}

sim::Task<AcquiredInstance>
StartupManager::acquire(const FunctionDef &fn, int pu, int managerPu,
                        obs::SpanContext ctx)
{
    MOLECULE_ASSERT(fn.cpuWork != nullptr,
                    "function '%s' has no CPU/DPU workload",
                    fn.name.c_str());
    Slot &sl = slot(fn.id, pu);
    ++sl.freq;
    strategy_->onRequest(fn.name, pu, dep_.simulation().now());
    // A warm hit never suspends, so it completes here, frame-free.
    while (!sl.pool.empty()) {
        AcquiredInstance out;
        out.instance = sl.pool.pop_front().instance;
        --warmOnPu_[std::size_t(pu)];
        // An instance killed while parked (OOM, PU crash) is skipped;
        // exhausting the pool falls through to a cold start.
        if (out.instance->dead)
            continue;
        obs::Span span(ctx, "startup", obs::Layer::Core, pu);
        ++warmHits_;
        out.pu = pu;
        return sim::Task<AcquiredInstance>::ready(out);
    }
    return coldStart(fn, pu, managerPu, ctx);
}

sim::Task<AcquiredInstance>
StartupManager::coldStart(const FunctionDef &fn, int pu, int managerPu,
                          obs::SpanContext ctx)
{
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    obs::Span span(ctx, "startup", obs::Layer::Core, pu);
    ++coldStarts_;
    if (managerPu != pu) {
        // Remote targets pay the executor command round-trip over
        // nIPC: command, executor-side processing, response back.
        obs::Span rtt(span.ctx(), "nipc.cmd-rtt", obs::Layer::Xpu,
                      managerPu);
        {
            xpu::XpuShimNetwork::Hop cmd(dep_.shimNet(), managerPu, pu,
                                         160, rtt.ctx());
            while (cmd.pending())
                co_await cmd.step();
        }
        co_await dep_.osOn(pu).swDelay(calib::kExecutorCommandCost);
        xpu::XpuShimNetwork::Hop reply(dep_.shimNet(), pu, managerPu, 64,
                                       rtt.ctx());
        while (reply.pending())
            co_await reply.step();
    }

    auto &runc = dep_.runcOn(pu);
    sandbox::Instance *inst = addInstance(fn, pu);
    bool created = false;
    if (inst != nullptr)
        created = co_await runc.create(*inst, span.ctx());
    if (!created) {
        // Admission failure (memory exhausted on this PU).
        co_return AcquiredInstance{};
    }
    bool started = false;
    {
        obs::Span st(span.ctx(), "sandbox.start", obs::Layer::Sandbox,
                     pu);
        started = co_await runc.start(*inst);
    }
    MOLECULE_ASSERT(started, "sandbox '%s' failed to start",
                    inst->id.c_str());

    AcquiredInstance out;
    out.instance = inst;
    out.pu = pu;
    out.cold = true;
    out.startupTime = sim.now() - t0;
    slot(fn.id, pu).knownColdMs = out.startupTime.toMilliseconds();
    co_return out;
}

sandbox::Instance *
StartupManager::addInstance(const FunctionDef &fn, int pu)
{
    auto &runc = dep_.runcOn(pu);
    runc.setStartupPath(options_.useCfork ? options_.cforkPath
                                          : sandbox::StartupPath::ColdBoot);
    char serial[24];
    const auto digits = std::to_chars(serial, serial + sizeof(serial),
                                      nextSandboxId_++);
    idScratch_.assign(fn.name);
    idScratch_ += '#';
    idScratch_.append(serial, digits.ptr);
    return runc.addInstance(idScratch_, fn.cpuWork->image);
}

sim::Task<>
StartupManager::release(const FunctionDef &fn, AcquiredInstance inst)
{
    if (!inst.instance)
        return sim::Task<>::ready();
    const FnId id = fn.id;
    Slot &sl = slot(id, inst.pu);
    WarmEntry entry;
    entry.instance = inst.instance;
    entry.lastUsed = dep_.simulation().now();
    // Greedy-dual uses the *function's* cold-start cost (what an
    // eviction would make the next request pay), not this instance's.
    entry.costMs = sl.knownColdMs >= 0.0
                       ? sl.knownColdMs
                       : inst.startupTime.toMilliseconds();
    entry.freq = sl.freq;
    entry.sizeMb =
        double(fn.cpuWork->image.mem.coldTotal()) / double(1 << 20);
    // The strategy stamps the parking priority (greedy-dual: clock +
    // freq * cost / size; order-insensitive strategies return 0).
    entry.parkPriority =
        strategy_->parkPriority(entryView(id, inst.pu, entry));
    sl.pool.push_back(entry);
    const std::size_t onPu = ++warmOnPu_[std::size_t(inst.pu)];
    // Parking within every budget never suspends: done here.
    if (sl.pool.size() <= options_.warmCapacity &&
        (options_.globalWarmCapacityPerPu == 0 ||
         onPu <= options_.globalWarmCapacityPerPu))
        return sim::Task<>::ready();
    return evictIfNeeded(id, inst.pu);
}

sim::Task<>
StartupManager::evictIfNeeded(FnId fn, int pu)
{
    sandbox::RuncRuntime &runc = dep_.runcOn(pu);
    // Each phase scores against the time it began.
    const sim::SimTime now = dep_.simulation().now();
    while (sandbox::Instance *victim = evictLocal(fn, pu, now))
        co_await runc.destroy(*victim);
    if (options_.globalWarmCapacityPerPu == 0)
        co_return;
    const sim::SimTime globalNow = dep_.simulation().now();
    while (sandbox::Instance *victim = evictGlobal(pu, globalNow))
        co_await runc.destroy(*victim);
}

sandbox::Instance *
StartupManager::evictLocal(FnId fn, int pu, sim::SimTime now)
{
    const auto &pool = slot(fn, pu).pool;
    if (pool.size() <= options_.warmCapacity)
        return nullptr;
    // Lowest strategy score goes; strict improvement keeps the
    // earliest-scanned entry on ties.
    std::size_t victim = 0;
    double victimScore = strategy_->score(entryView(fn, pu, pool[0]), now);
    for (std::size_t i = 1; i < pool.size(); ++i) {
        const double s = strategy_->score(entryView(fn, pu, pool[i]), now);
        if (s < victimScore) {
            victim = i;
            victimScore = s;
        }
    }
    return takeVictim(fn, pu, victim);
}

sandbox::Instance *
StartupManager::evictGlobal(int pu, sim::SimTime now)
{
    if (warmOnPu_[std::size_t(pu)] <= options_.globalWarmCapacityPerPu)
        return nullptr;
    // Find the global victim across this PU's pools: lowest strategy
    // score; strict improvement keeps the earliest-scanned entry on
    // ties. Pools are scanned in function-*name* order (then index),
    // never in id order, so the victim does not depend on registration
    // order.
    FnId victimFn = kNoFn;
    std::size_t victimIdx = 0;
    double victimScore = 0.0;
    for (FnId fn : registry_.idsByName()) {
        const Slot *sl = findSlot(fn, pu);
        for (std::size_t i = 0; sl && i < sl->pool.size(); ++i) {
            const double s =
                strategy_->score(entryView(fn, pu, sl->pool[i]), now);
            if (victimFn == kNoFn || s < victimScore) {
                victimFn = fn;
                victimIdx = i;
                victimScore = s;
            }
        }
    }
    if (victimFn == kNoFn)
        return nullptr;
    return takeVictim(victimFn, pu, victimIdx);
}

sandbox::Instance *
StartupManager::takeVictim(FnId fn, int pu, std::size_t i)
{
    auto &pool = slot(fn, pu).pool;
    const WarmEntry evicted = pool[i];
    pool.erase(i);
    --warmOnPu_[std::size_t(pu)];
    noteEviction(fn, pu, evicted);
    return evicted.instance;
}

void
StartupManager::setFpgaHotSet(int fpgaIndex,
                              std::vector<std::string> funcIds)
{
    fpgaHotSets_[fpgaIndex] = std::move(funcIds);
}

sim::Task<Expected<AcquiredFpga>>
StartupManager::acquireFpga(const FunctionDef &fn, int fpgaIndex,
                            obs::SpanContext ctx)
{
    MOLECULE_ASSERT(fn.fpgaWork != nullptr,
                    "function '%s' has no FPGA workload",
                    fn.name.c_str());
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    auto &runf = dep_.runf(fpgaIndex);
    obs::Span span(ctx, "startup", obs::Layer::Core,
                   dep_.computer().fpga(fpgaIndex).hostPuId());
    const std::string sandboxId = "fpga/" + fn.name;

    AcquiredFpga out;
    out.sandboxId = sandboxId;
    out.fpgaIndex = fpgaIndex;

    if (!runf.cached(fn.fpgaWork->image.funcId)) {
        // Not resident: compose one image from the hot set (which
        // always includes the requested function) and program it.
        ++coldStarts_;
        out.cold = true;
        std::vector<sandbox::CreateRequest> reqs;
        std::vector<std::string> hot = fpgaHotSets_[fpgaIndex];
        if (std::find(hot.begin(), hot.end(), fn.name) == hot.end())
            hot.push_back(fn.name);
        for (const auto &name : hot) {
            const FunctionDef &def = registry_.find(name);
            MOLECULE_ASSERT(def.fpgaWork != nullptr,
                            "hot-set fn '%s' has no FPGA image",
                            name.c_str());
            reqs.push_back(sandbox::CreateRequest{
                "fpga/" + name, &def.fpgaWork->image, span.ctx()});
        }
        const Expected<int> created = co_await runf.createVector(reqs);
        if (!created.ok()) {
            // Composition or (injected) reconfiguration failure: the
            // fabric holds no usable image; the caller may retry.
            co_return created.error();
        }
        MOLECULE_ASSERT(created.value() == int(reqs.size()),
                        "FPGA image composition failed (resources?)");
    } else {
        ++warmHits_;
    }
    bool started = false;
    {
        obs::Span st(span.ctx(), "sandbox.prep", obs::Layer::Sandbox,
                     dep_.computer().fpga(fpgaIndex).hostPuId());
        started = co_await runf.start(sandboxId);
    }
    if (!started)
        co_return Error(Errc::NotFound,
                        "FPGA sandbox '" + sandboxId +
                            "' failed to start (image not resident)",
                        dep_.computer().fpga(fpgaIndex).hostPuId());
    out.startupTime = sim.now() - t0;
    co_return Expected<AcquiredFpga>(std::move(out));
}

sim::Task<Expected<AcquiredFpga>>
StartupManager::acquireGpu(const FunctionDef &fn, int gpuIndex,
                           obs::SpanContext ctx)
{
    auto &sim = dep_.simulation();
    const auto t0 = sim.now();
    auto &rung = dep_.rung(gpuIndex);
    obs::Span span(ctx, "startup", obs::Layer::Core,
                   dep_.computer().gpuDev(gpuIndex).hostPuId());
    const std::string sandboxId = "gpu/" + fn.name;

    AcquiredFpga out;
    out.sandboxId = sandboxId;
    out.fpgaIndex = gpuIndex;
    if (rung.state(sandboxId) == sandbox::SandboxState::Unknown) {
        ++coldStarts_;
        out.cold = true;
        sandbox::FunctionImage *img = gpuImage(fn);
        sandbox::CreateRequest req{sandboxId, img, span.ctx()};
        const bool created = co_await rung.create(req);
        MOLECULE_ASSERT(created, "GPU create failed for '%s'",
                        fn.name.c_str());
        bool started = false;
        {
            obs::Span st(span.ctx(), "sandbox.start",
                         obs::Layer::Sandbox,
                         dep_.computer().gpuDev(gpuIndex).hostPuId());
            started = co_await rung.start(sandboxId);
        }
        MOLECULE_ASSERT(started, "GPU start failed");
    } else {
        ++warmHits_;
    }
    out.startupTime = sim.now() - t0;
    co_return Expected<AcquiredFpga>(std::move(out));
}

sandbox::FunctionImage *
StartupManager::gpuImage(const FunctionDef &fn)
{
    auto it = gpuImages_.find(fn.name);
    if (it == gpuImages_.end()) {
        auto img = std::make_unique<sandbox::FunctionImage>();
        img->funcId = fn.name;
        img->language = sandbox::Language::CudaCpp;
        it = gpuImages_.emplace(fn.name, std::move(img)).first;
    }
    return it->second.get();
}

std::size_t
StartupManager::warmCount(const std::string &fn, int pu) const
{
    const FunctionDef *def = registry_.findPtr(fn);
    return def != nullptr ? warmCount(def->id, pu) : 0;
}

std::size_t
StartupManager::warmCount(FnId fn, int pu) const
{
    const Slot *sl = findSlot(fn, pu);
    return sl != nullptr ? sl->pool.size() : 0;
}

void
StartupManager::purgePu(int pu)
{
    for (auto &row : slots_)
        if (row != nullptr)
            row[std::size_t(pu)].pool.clear();
    warmOnPu_[std::size_t(pu)] = 0;
}

void
StartupManager::purgeFunction(const std::string &fn, int pu)
{
    if (const FunctionDef *def = registry_.findPtr(fn)) {
        auto &pool = slot(def->id, pu).pool;
        warmOnPu_[std::size_t(pu)] -= pool.size();
        pool.clear();
    }
}

sim::Task<>
StartupManager::rewarmPu(int pu, obs::SpanContext ctx)
{
    // The reboot destroyed every instance, template and pooled
    // container on the PU; the pool entries pointing at them are
    // already purged at crash time (RecoveryManager), but a restart
    // between crash and purge is impossible, so purge again cheaply.
    purgePu(pu);
    if (!options_.useCfork)
        co_return;
    obs::Span span(ctx, "recovery.rewarm", obs::Layer::Core, pu);
    co_await prepareTemplates(pu);
}

sim::Task<>
StartupManager::prepareTemplates(int pu)
{
    auto &runc = dep_.runcOn(pu);
    bool preparedPython = false, preparedNode = false;
    // One generic template per language, seeded from the first
    // registered function image of that language (name order).
    for (const auto *img : registry_.imagesForTemplates()) {
        if (img->language == sandbox::Language::Python &&
            !preparedPython) {
            preparedPython = co_await runc.prepareTemplate(*img);
        } else if (img->language == sandbox::Language::Node &&
                   !preparedNode) {
            preparedNode = co_await runc.prepareTemplate(*img);
        }
    }
    co_await runc.prewarmFunctionContainers(
        options_.pooledContainersPerPu);
}

} // namespace molecule::core
