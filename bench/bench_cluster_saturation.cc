/**
 * @file
 * Cluster-substrate wall-clock bench: how fast the simulator chews
 * through open-loop load, as generator-only streams (arrivals
 * produced per wall second, one row per arrival process) and as the
 * saturated rung of `cluster_report ladder` (invocations
 * completed per wall second, admission + dispatch + the whole
 * per-node Molecule pipeline).
 *
 * Writes BENCH_cluster.json (same PerfSnapshot shape perf_check
 * reads); the committed copy at the repo root is the reference the CI
 * perf-smoke job compares against, warn-only — the cluster rows span
 * the entire stack, so they are noisier than the simcore micros.
 */

#include <chrono>

#include "bench/common.hh"
#include "cluster/scenario.hh"
#include "load/generator.hh"

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

load::TraceSpec
baseSpec(double rate)
{
    load::TraceSpec spec;
    spec.seed = 42;
    spec.ratePerSecond = rate;
    spec.functions = {"helloworld", "pyaes", "dd", "gzip-compression"};
    spec.tenants = {
        {"alpha", 3.0, 1.1, 1},
        {"beta", 1.0, 0.8, 2},
    };
    return spec;
}

/** Arrivals produced per wall second for one arrival process. */
double
generatorRate(load::ArrivalKind kind)
{
    load::TraceSpec spec = baseSpec(100000.0);
    spec.arrival = kind;
    spec.duration = SimTime::fromSeconds(10.0); // ~1M arrivals
    load::OpenLoopGenerator gen(spec);
    const auto t0 = std::chrono::steady_clock::now();
    load::Arrival a;
    std::uint64_t n = 0;
    while (gen.next(a))
        ++n;
    return double(n) / wallSeconds(t0);
}

/**
 * Completed invocations per wall second for the saturated rung of the
 * cluster_report ladder, scaled down to bench length (~48k arrivals,
 * ~30k served). Only the drive is timed, not the fleet's boot.
 */
double
clusterRate()
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 4;
    spec.fleet.dpusPerNode = 2;
    spec.trace = baseSpec(480.0);
    spec.trace.duration = SimTime::fromSeconds(100.0);
    spec.admission.tokensPerSecond = 300.0;
    spec.admission.bucketCapacity = 200.0;
    spec.admission.queueCapacity = 2048;
    spec.admission.maxOutstandingPerNode = 96;
    spec.admission.invoke.maxAttempts = 2;
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
    bench::banner("cluster substrate saturation throughput",
                  "cluster gateway over §6 setting-1 nodes");

    bench::PerfSnapshot snap("items_per_second");
    sim::Table table("Wall-clock throughput, best of 3 repetitions");
    table.header({"case", "items/s"});

    struct GenCase
    {
        const char *name;
        load::ArrivalKind kind;
    };
    constexpr GenCase kGenCases[] = {
        {"GenPoissonStream", load::ArrivalKind::Poisson},
        {"GenMmppStream", load::ArrivalKind::Mmpp},
        {"GenDiurnalStream", load::ArrivalKind::Diurnal},
    };
    for (const auto &c : kGenCases) {
        double best = 0.0;
        for (int rep = 0; rep < kRepetitions; ++rep) {
            const double rate = generatorRate(c.kind);
            snap.record(c.name, rate);
            best = std::max(best, rate);
        }
        table.row({c.name, sim::Table::num(best, 0)});
    }
    double best = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        const double rate = clusterRate();
        snap.record("ClusterSaturatedRung", rate);
        best = std::max(best, rate);
    }
    table.row({"ClusterSaturatedRung", sim::Table::num(best, 0)});
    table.print();

    if (!snap.writeJson("BENCH_cluster.json")) {
        std::fprintf(stderr, "cannot write BENCH_cluster.json\n");
        return 1;
    }
    std::printf("\nsnapshot -> BENCH_cluster.json\n");
    return 0;
}
