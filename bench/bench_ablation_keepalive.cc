/**
 * @file
 * Ablation (§5 "Keep-alive policies"): plain LRU vs FaasCache-style
 * greedy-dual keep-alive under a skewed production-like trace.
 *
 * A Poisson/Zipf trace drives FunctionBench functions on the host CPU
 * with a tight global warm budget. Greedy-dual weighs instances by
 * cold-start cost over size, so it protects expensive-to-boot
 * functions that plain recency evicts — lowering total time spent in
 * cold starts. Not a paper figure; this evaluates the design choice
 * the paper defers to FaasCache.
 */

#include "bench/common.hh"
#include "workloads/loadgen.hh"

namespace {

using namespace molecule;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;
using workloads::LoadGenerator;

struct Outcome
{
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    double meanStartupMs = 0;
    double p95StartupMs = 0;
};

Outcome
runTrace(const KeepAliveConfig &keepAlive, std::size_t budget)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 0,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.keepAlive = keepAlive;
    options.startup.globalWarmCapacityPerPu = budget;
    Molecule runtime(*computer, options);
    // Exclude video-processing: its 34 s body would dominate wall
    // time without stressing the cache.
    std::vector<std::string> fns;
    for (const auto &fn : Catalog::functionBenchNames())
        if (fn != "video-processing")
            fns.push_back(fn);
    for (const auto &fn : fns)
        runtime.registerCpuFunction(fn, {PuType::HostCpu});
    runtime.start();

    sim::Rng traceRng(1234); // trace fixed across policies
    LoadGenerator::Options lg;
    lg.requestsPerSecond = 20;
    lg.zipfExponent = 1.2;
    lg.duration = sim::SimTime::seconds(120);
    LoadGenerator gen(traceRng, fns, lg);
    const auto trace = gen.generate();

    sim::Histogram startup;
    auto drive = [](Molecule *m,
                    const std::vector<workloads::TraceEvent> *events,
                    sim::Histogram *hist) -> sim::Task<> {
        auto &s = m->simulation();
        for (const auto &ev : *events) {
            if (ev.at > s.now())
                co_await s.delay(ev.at - s.now());
            auto rec = co_await m->invoke(ev.fn, {.pu = 0});
            hist->addTime(rec.value().startup);
        }
    };
    sim.spawn(drive(&runtime, &trace, &startup));
    sim.run();

    Outcome out;
    out.coldStarts = runtime.startup().coldStarts();
    out.warmHits = runtime.startup().warmHits();
    out.meanStartupMs = startup.mean() / 1000.0;
    out.p95StartupMs = startup.percentile(95) / 1000.0;
    return out;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Ablation: keep-alive policy (LRU vs greedy-dual vs "
           "histogram)",
           "design choice deferred to FaasCache in §5; Zipf(1.2) "
           "trace, 20 req/s, 120 s, global warm budget per PU");

    Table t("Keep-alive ablation (7 FunctionBench fns, host CPU)");
    t.header({"budget", "policy", "cold", "warm", "mean startup (ms)",
              "p95 startup (ms)"});
    for (std::size_t budget : {2, 3, 4, 6}) {
        for (const auto &keepAlive :
             {KeepAliveConfig::lru(), KeepAliveConfig::greedyDual(),
              KeepAliveConfig::histogram()}) {
            const auto o = runTrace(keepAlive, budget);
            t.row({std::to_string(budget),
                   core::toString(keepAlive.kind),
                   std::to_string(o.coldStarts),
                   std::to_string(o.warmHits),
                   Table::num(o.meanStartupMs, 2),
                   Table::num(o.p95StartupMs, 2)});
        }
    }
    t.print();
    return 0;
}
