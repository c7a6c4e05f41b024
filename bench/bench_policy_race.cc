/**
 * @file
 * Policy-layer wall-clock bench: how fast the simulator chews through
 * the `cluster_report policy` race under each placement x keep-alive
 * combo (invocations completed per wall second, full admission +
 * placement + keep-alive + cost accounting pipeline).
 *
 * Writes BENCH_policy.json (same PerfSnapshot shape perf_check
 * reads); the committed copy at the repo root is the reference the CI
 * perf-smoke job compares against, warn-only — policy rows span the
 * entire stack and are noisier than the simcore micros.
 */

#include <chrono>

#include "bench/common.hh"
#include "cluster/scenario.hh"

namespace {

using namespace molecule;
using sim::SimTime;

constexpr int kRepetitions = 3;

double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Completed invocations per wall second for one policy combo on the
 * saturated rung of the `cluster_report policy` race (open gateway,
 * 4-node 2xBF2 fleet, cost model attached). Only the drive is timed,
 * not the fleet's boot.
 */
double
policyRate(const core::PlacementConfig &placement,
           const core::KeepAliveConfig &keepAlive)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 4;
    spec.fleet.dpusPerNode = 2;
    spec.fleet.runtime.placement = placement;
    spec.fleet.runtime.startup.keepAlive = keepAlive;
    spec.trace.seed = 42;
    spec.trace.ratePerSecond = 768.0; // 1.6x the DPU-bound ceiling
    spec.trace.duration = SimTime::fromSeconds(60.0);
    spec.trace.functions = {"helloworld", "pyaes", "dd",
                            "gzip-compression"};
    spec.trace.tenants = {
        {"alpha", 3.0, 1.1, 1},
        {"beta", 1.0, 0.8, 2},
    };
    spec.admission.queueCapacity = 2048;
    spec.admission.maxOutstandingPerNode = 96;
    spec.admission.invoke.maxAttempts = 2;
    spec.cost = true;
    cluster::Scenario scenario(spec);
    const auto t0 = std::chrono::steady_clock::now();
    scenario.drive();
    const double wall = wallSeconds(t0);
    return double(scenario.result().summary.completed) / wall;
}

} // namespace

int
main()
{
    using namespace molecule::bench;

    banner("policy race wall-clock throughput",
           "placement x keep-alive combos on the saturated "
           "cluster_report policy rung");

    PerfSnapshot snap("items_per_second");
    sim::Table table("Wall-clock throughput, best of 3 repetitions");
    table.header({"case", "items/s"});

    struct Case
    {
        const char *name;
        core::PlacementConfig placement;
        core::KeepAliveConfig keepAlive;
    };
    const Case kCases[] = {
        {"PolicyPriceOrderedLru", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::lru()},
        {"PolicyLoadAwareLru", core::PlacementConfig::loadAware(),
         core::KeepAliveConfig::lru()},
        {"PolicyLocalityLru", core::PlacementConfig::locality(),
         core::KeepAliveConfig::lru()},
        {"PolicyPriceOrderedHistogram",
         core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::histogram()},
    };
    for (const auto &c : kCases) {
        double best = 0.0;
        for (int rep = 0; rep < kRepetitions; ++rep) {
            const double rate = policyRate(c.placement, c.keepAlive);
            snap.record(c.name, rate);
            best = std::max(best, rate);
        }
        table.row({c.name, sim::Table::num(best, 0)});
    }
    table.print();

    if (!snap.writeJson("BENCH_policy.json")) {
        std::fprintf(stderr, "cannot write BENCH_policy.json\n");
        return 1;
    }
    std::printf("\nsnapshot -> BENCH_policy.json\n");
    return 0;
}
