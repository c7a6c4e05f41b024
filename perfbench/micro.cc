#include "micro.hh"

#include <array>
#include <cmath>
#include <vector>

#include "cluster/stats.hh"
#include "obs/trace.hh"
#include "probes.hh"
#include "sim/random.hh"
#include "xpu/client.hh"

namespace perfbench {

namespace {

/** Keeps the optimizer from discarding a measured call's result. */
template <typename T>
void
keep(T v)
{
    asm volatile("" : : "r,m"(v) : "memory");
}

/**
 * Wall time and fired events inside a coroutine's timed sections. The
 * coroutine raises `open` around the calls it measures; the step loop
 * counts the events fired while it is raised.
 */
struct Window
{
    bool open = false;
    std::int64_t events = 0;
    std::int64_t ns = 0;
    std::int64_t ops = 0;

    void
    begin(std::int64_t &t0)
    {
        open = true;
        t0 = wallNs();
    }

    void
    end(std::int64_t t0, std::int64_t n = 1)
    {
        ns += wallNs() - t0;
        ops += n;
        open = false;
    }

    /** ns per op net of the kernel cost of the events it fired. */
    double
    netNs(double fireNs) const
    {
        if (ops == 0)
            return 0.0;
        const double net = double(ns) - double(events) * fireNs;
        return (net > 0.0 ? net : 0.0) / double(ops);
    }
};

void
drain(sim::Simulation &sim, Window &w)
{
    while (sim.step())
        if (w.open)
            ++w.events;
}

double
scheduleFireNs()
{
    // Batches of a few hundred pending events at spread-out instants,
    // the queue depth a loaded fleet keeps.
    constexpr int kBatch = 512;
    constexpr int kRounds = 400;
    sim::Simulation s(1);
    sim::Rng rng(7);
    std::array<sim::SimTime, kBatch> offsets;
    for (auto &o : offsets)
        o = sim::SimTime(rng.uniformInt(0, 1000000));
    std::uint64_t fired = 0;
    const std::int64_t t0 = wallNs();
    for (int r = 0; r < kRounds; ++r) {
        for (const sim::SimTime o : offsets)
            s.schedule(o, [&fired] { ++fired; });
        s.run();
    }
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(fired);
}

double
histogramAddNs()
{
    constexpr int kValues = 4096;
    constexpr int kCalls = 1 << 20;
    sim::Rng rng(11);
    std::vector<double> values(kValues);
    for (double &v : values)
        v = std::exp(rng.uniform(0.0, 14.0)); // 1 us .. ~1.2 s
    obs::Histogram h;
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i)
        h.add(values[std::size_t(i & (kValues - 1))]);
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
tracerPushNs(std::uint64_t seed)
{
    constexpr int kCalls = 1 << 19;
    static const char *const kNames[] = {"startup", "comm",
                                         "sandbox.exec", "os.dispatch"};
    sim::Simulation s(seed);
    obs::Tracer tracer(s, seed, 4096);
    obs::SpanRecord rec;
    rec.traceId = 1;
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i) {
        rec.spanId = std::uint64_t(i) + 1;
        rec.name = kNames[i & 3];
        rec.end = i;
        tracer.push(rec);
    }
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
statsOnCompletedNs(bool withCost, const cluster::Fleet &fleet)
{
    constexpr int kCalls = 1 << 18;
    obs::Registry reg;
    cluster::ClusterStats stats(reg);
    cluster::CostModel cost;
    if (withCost)
        stats.setCostModel(&cost, fleet.puTypeTable());
    obs::InvocationRecord rec;
    rec.function = "pyaes";
    rec.pu = 1;
    rec.execution = sim::SimTime::milliseconds(20);
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i)
        stats.onCompleted(i & 3, rec,
                          sim::SimTime(1000000 + (i * 7919) % 50000000),
                          i & 1, 64);
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
schedPlaceNs(core::Molecule &node, const Workload &wl)
{
    constexpr int kCalls = 1 << 16;
    std::vector<const core::FunctionDef *> defs;
    for (const auto &fn : wl.functions)
        defs.push_back(node.registry().findPtr(fn));
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i)
        keep(node.scheduler().place(*defs[std::size_t(i) % defs.size()]));
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
policyPlaceNs(core::Molecule &node, const Workload &wl)
{
    constexpr int kCalls = 1 << 16;
    std::unique_ptr<core::PlacementPolicy> policy = wl.placement.make();
    std::vector<core::PlacementRequest> reqs;
    std::vector<core::PlacementView> views;
    for (const auto &fn : wl.functions) {
        const core::FunctionDef *def = node.registry().findPtr(fn);
        reqs.push_back(core::PlacementRequest{def, {}});
        views.push_back(node.scheduler().view(*def));
    }
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i) {
        const std::size_t k = std::size_t(i) % reqs.size();
        keep(policy->place(reqs[k], views[k]));
    }
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
dispatchPickNs()
{
    constexpr int kCalls = 1 << 20;
    cluster::LeastOutstandingPolicy policy;
    std::array<int, 4> outstanding = {3, 1, 4, 1};
    load::Arrival a;
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i) {
        outstanding[std::size_t(i) & 3] = i & 7;
        keep(policy.pick(a, outstanding, 96));
    }
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

double
keepAliveScoreNs(const Workload &wl)
{
    constexpr int kCalls = 1 << 20;
    std::unique_ptr<core::KeepAliveStrategy> strategy = wl.keepAlive.make();
    core::WarmEntryView entry;
    entry.fn = wl.functions[0];
    entry.pu = 1;
    entry.lastUsed = sim::SimTime::milliseconds(5);
    entry.freq = 12;
    entry.costMs = 40.0;
    entry.sizeMb = 64.0;
    entry.parkPriority = strategy->parkPriority(entry);
    const std::int64_t t0 = wallNs();
    for (int i = 0; i < kCalls; ++i)
        keep(strategy->score(entry,
                             sim::SimTime::milliseconds(6 + (i & 63))));
    const std::int64_t t1 = wallNs();
    return double(t1 - t0) / double(kCalls);
}

/** One warm acquire + release. A warm hit never suspends, so each
 * cycle is its own root task: chaining thousands of them inside one
 * coroutine would nest their frames on the stack. */
sim::Task<>
warmCycle(core::StartupManager &startup, const core::FunctionDef &def,
          int pu, Window &acquire, Window &cycle)
{
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    cycle.begin(t0);
    acquire.begin(t1);
    core::AcquiredInstance acq = co_await startup.acquire(def, pu, 0);
    acquire.end(t1);
    co_await startup.release(def, acq);
    cycle.end(t0);
}

sim::Task<>
coldLoop(core::StartupManager &startup, const core::FunctionDef &def,
         const std::vector<int> &pus, int n, Window &w)
{
    for (int i = 0; i < n; ++i) {
        const int pu = pus[std::size_t(i) % pus.size()];
        std::int64_t t0 = 0;
        w.begin(t0);
        core::AcquiredInstance acq = co_await startup.acquire(def, pu, 0);
        w.end(t0);
        // Warm capacity is zero: the release evicts, so the next
        // acquire on this PU starts cold again.
        co_await startup.release(def, acq);
    }
}

sim::Task<>
runcLoop(core::Molecule &node, const core::FunctionDef &def, int pu,
         int n, Window &w)
{
    core::AcquiredInstance acq =
        co_await node.startup().acquire(def, pu, 0);
    const std::string id = acq.instance->id;
    const sim::SimTime exec = def.cpuWork->execCost;
    sandbox::RuncRuntime &runc = node.deployment().runcOn(pu);
    std::int64_t t0 = 0;
    w.begin(t0);
    for (int i = 0; i < n; ++i) {
        core::Status st = co_await runc.invoke(id, exec);
        if (!st.ok())
            break;
    }
    w.end(t0, n);
    co_await node.startup().release(def, acq);
}

sim::Task<>
transferLoop(xpu::XpuShimNetwork &net, std::uint64_t bytes, int n,
             Window &w)
{
    std::int64_t t0 = 0;
    w.begin(t0);
    for (int i = 0; i < n; ++i)
        co_await net.transfer(0, 1, bytes);
    w.end(t0, n);
}

sim::Task<>
xpucallLoop(core::Deployment &dep, int n, Window &w)
{
    const std::string writerName = "perfbench/writer";
    const std::string readerName = "perfbench/reader";
    os::Process *writerProc =
        co_await dep.osOn(0).spawnProcess(writerName, 1 << 20);
    os::Process *readerProc =
        co_await dep.osOn(1).spawnProcess(readerName, 1 << 20);
    if (writerProc == nullptr || readerProc == nullptr)
        co_return;
    xpu::XpuClient writer(dep.shimOn(0), *writerProc);
    xpu::XpuClient reader(dep.shimOn(1), *readerProc);
    const std::string uuid = "perfbench/fifo";
    const std::string tag = "req";
    auto self = co_await reader.xfifoInit(uuid);
    if (!self.ok())
        co_return;
    const xpu::XpuFd readFd = self.value();
    core::Status granted = co_await reader.grantCap(
        writer.xpuPid(), reader.objectOf(readFd), xpu::Perm::Write);
    if (!granted.ok())
        co_return;
    auto conn = co_await writer.xfifoConnect(uuid);
    if (!conn.ok())
        co_return;
    const xpu::XpuFd writeFd = conn.value();
    std::int64_t t0 = 0;
    w.begin(t0);
    for (int i = 0; i < n; ++i) {
        core::Status st = co_await writer.xfifoWrite(writeFd, 256, tag);
        auto msg = co_await reader.xfifoRead(readFd);
        if (!st.ok() || !msg.ok())
            break;
    }
    w.end(t0, 2 * std::int64_t(n));
}

} // namespace

MicroCosts
measureMicros(const Workload &wl, std::uint64_t seed)
{
    MicroCosts m;
    m.scheduleFireNs = scheduleFireNs();
    m.histogramAddNs = histogramAddNs();
    m.tracerPushNs = tracerPushNs(seed);

    sim::Simulation sim(seed);
    cluster::FleetSpec spec = fleetSpec(wl);
    spec.nodes = 1;
    cluster::Fleet fleet(sim, spec);
    registerFunctions(wl, fleet);
    fleet.start();
    core::Molecule &node = fleet.node(0);
    const core::FunctionDef &def = *node.registry().findPtr(wl.functions[0]);
    const double fire = m.scheduleFireNs;

    m.statsOnCompletedNs =
        statsOnCompletedNs(wl.front == Front::Gateway, fleet);
    m.schedPlaceNs = schedPlaceNs(node, wl);
    m.policyPlaceNs = policyPlaceNs(node, wl);
    m.dispatchPickNs = dispatchPickNs();
    m.keepAliveScoreNs = keepAliveScoreNs(wl);

    {
        // Prime one parked instance on DPU 1, then cycle it.
        Window primeA, primeC;
        sim.spawn(warmCycle(node.startup(), def, 1, primeA, primeC));
        drain(sim, primeC);
        Window acquire, cycle;
        for (int i = 0; i < 20000; ++i) {
            sim.spawn(warmCycle(node.startup(), def, 1, acquire, cycle));
            drain(sim, cycle);
        }
        m.warmAcquireNs = acquire.netNs(fire);
        m.warmAcquireReleaseNs = cycle.netNs(fire);
    }
    {
        Window w;
        sim.spawn(runcLoop(node, def, 1, 20000, w));
        drain(sim, w);
        m.runcInvokeNs = w.netNs(fire);
    }
    {
        Window w;
        sim.spawn(transferLoop(node.deployment().shimNet(),
                               def.cpuWork->msgBytes, 20000, w));
        drain(sim, w);
        m.transferNs = w.netNs(fire);
    }
    {
        Window w;
        sim.spawn(xpucallLoop(node.deployment(), 10000, w));
        drain(sim, w);
        m.xpucallNs = w.netNs(fire);
    }
    {
        // Last, since it zeroes the node's warm capacity.
        node.startup().options().warmCapacity = 0;
        Window w;
        sim.spawn(coldLoop(node.startup(), def,
                           node.deployment().generalPus(), 3000, w));
        drain(sim, w);
        m.coldAcquireNs = w.netNs(fire);
    }
    return m;
}

} // namespace perfbench
