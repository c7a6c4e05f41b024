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

#include <cmath>
#include <numeric>

#include "bench/common.hh"
#include "load/generator.hh"

namespace {

using namespace molecule;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

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

    load::TraceSpec spec; // trace fixed across policies
    spec.seed = 1234;
    spec.ratePerSecond = 20;
    spec.duration = sim::SimTime::seconds(120);
    spec.functions = fns;
    spec.tenants = {{"default", 1.0, 1.2, 0}};
    load::OpenLoopGenerator gen(std::move(spec));

    std::vector<double> startupUs;
    auto drive = [](Molecule *m, load::OpenLoopGenerator *g,
                    std::vector<double> *samples) -> sim::Task<> {
        auto &s = m->simulation();
        const auto &names = g->spec().functions;
        load::Arrival a;
        while (g->next(a)) {
            if (a.at > s.now())
                co_await s.delay(a.at - s.now());
            auto rec = co_await m->invoke(names[a.fn], {.pu = 0});
            samples->push_back(rec.value().startup.toMicroseconds());
        }
    };
    sim.spawn(drive(&runtime, &gen, &startupUs));
    sim.run();

    Outcome out;
    out.coldStarts = runtime.startup().coldStarts();
    out.warmHits = runtime.startup().warmHits();
    MOLECULE_ASSERT(!startupUs.empty(), "the trace has arrivals");
    out.meanStartupMs =
        std::accumulate(startupUs.begin(), startupUs.end(), 0.0) /
        double(startupUs.size()) / 1000.0;
    // Nearest-rank p95: the ceil(0.95 n)-th smallest sample.
    std::sort(startupUs.begin(), startupUs.end());
    const auto rank = std::size_t(
        std::ceil(0.95 * double(startupUs.size())));
    out.p95StartupMs = startupUs[rank - 1] / 1000.0;
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
