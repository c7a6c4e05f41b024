/**
 * @file
 * cluster::Scenario: the harness must run exactly the scenario a
 * caller would wire by hand, and its replay helper must see the same
 * digests serially, on a re-run and on SweepRunner workers, with
 * every attachment on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/scenario.hh"
#include "obs/timeseries.hh"

namespace {

using namespace molecule;
using sim::SimTime;

load::TraceSpec
twoTenants(std::uint64_t seed)
{
    load::TraceSpec trace;
    trace.seed = seed;
    trace.ratePerSecond = 400.0;
    trace.duration = SimTime::seconds(8);
    trace.functions = {"helloworld", "pyaes", "dd"};
    trace.tenants = {{"alpha", 3.0, 1.1, 1}, {"beta", 1.0, 0.8, 2}};
    return trace;
}

cluster::AdmissionOptions
admission()
{
    cluster::AdmissionOptions a;
    a.queueCapacity = 256;
    a.maxOutstandingPerNode = 8;
    return a;
}

obs::SloSpec
latencyObjective()
{
    obs::SloObjective latency;
    latency.name = "latency-p99";
    latency.thresholdUs = 20'000.0;
    return obs::SloSpec{.objectives = {latency}};
}

/** Two over-saturated nodes with the telemetry plane attached. */
cluster::ScenarioSpec
twoNodes(std::uint64_t seed)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    spec.trace = twoTenants(seed);
    spec.admission = admission();
    spec.telemetry = latencyObjective();
    return spec;
}

/** The same run as twoNodes(), wired by hand. */
cluster::ScenarioResult
handWired(std::uint64_t seed)
{
    sim::Simulation sim(seed);
    cluster::FleetSpec fleetSpec;
    fleetSpec.nodes = 2;
    fleetSpec.dpusPerNode = 1;
    cluster::Fleet fleet(sim, fleetSpec);
    const load::TraceSpec trace = twoTenants(seed);
    for (const auto &fn : trace.functions)
        fleet.registerCpuFunction(fn,
                                  {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    obs::TimeSeries ts(sim, {SimTime::seconds(1)});
    stats.attachTelemetry(&ts);
    obs::SloSpec slo = latencyObjective();
    slo.tenants = 2;
    obs::SloMonitor monitor(ts, slo);

    cluster::GatewayConfig cfg =
        cluster::GatewayConfig::forFunctions(trace.functions, stats);
    cfg.admission = admission();
    cluster::ClusterGateway gateway(fleet, cfg);

    load::OpenLoopGenerator gen(trace);
    const SimTime t0 = sim.now();
    sim.spawn(load::drive(sim, gen, gateway));
    sim.run();
    ts.flush();

    cluster::ScenarioResult r;
    r.summary = stats.summarize(sim.now() - t0, fleet.coreTable());
    r.digests.stats = stats.digest();
    sim::Fingerprint place;
    sim::Fingerprint evict;
    for (int i = 0; i < fleet.size(); ++i) {
        place.mix(fleet.node(i).scheduler().placementDigest());
        evict.mix(fleet.node(i).startup().evictionDigest());
    }
    r.digests.place = place.digest();
    r.digests.evict = evict.digest();
    r.digests.windows = ts.digest();
    r.digests.alerts = monitor.alertDigest();
    r.emitted = gen.emitted();
    return r;
}

TEST(ScenarioTest, MatchesHandWiredRun)
{
    const cluster::ScenarioResult want = handWired(42);
    const cluster::ScenarioResult got = cluster::run(twoNodes(42));

    EXPECT_EQ(got.digests, want.digests);
    EXPECT_NE(got.digests.windows, 0u);
    EXPECT_NE(got.digests.alerts, 0u);
    EXPECT_EQ(got.emitted, want.emitted);

    const cluster::ClusterSummary &g = got.summary;
    const cluster::ClusterSummary &w = want.summary;
    EXPECT_EQ(g.arrivals, w.arrivals);
    EXPECT_EQ(g.admitted, w.admitted);
    EXPECT_EQ(g.shed, w.shed);
    EXPECT_EQ(g.dropped, w.dropped);
    EXPECT_EQ(g.completed, w.completed);
    EXPECT_EQ(g.errors, w.errors);
    EXPECT_EQ(g.queueMaxDepth, w.queueMaxDepth);
    EXPECT_EQ(g.throughputPerSecond, w.throughputPerSecond);
    EXPECT_EQ(g.p50Us, w.p50Us);
    EXPECT_EQ(g.p99Us, w.p99Us);
    EXPECT_EQ(g.p999Us, w.p999Us);
    EXPECT_EQ(g.utilization.size(), w.utilization.size());
    ASSERT_EQ(g.tenants.size(), 2u);
    ASSERT_EQ(w.tenants.size(), 2u);
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(g.tenants[t].completed, w.tenants[t].completed);
        EXPECT_EQ(g.tenants[t].p99Us, w.tenants[t].p99Us);
    }
    EXPECT_GT(g.completed, 0);
}

TEST(ScenarioTest, ReplayDigestsAgreeSerialRerunSweep)
{
    cluster::ScenarioSpec bare = twoNodes(7);
    bare.telemetry.reset();
    cluster::ScenarioSpec costed = bare;
    costed.cost = true;
    cluster::ScenarioSpec chaos = twoNodes(7);
    fault::InjectionPlan plan;
    plan.crashPu(1, SimTime::seconds(3), SimTime::seconds(2));
    chaos.faults = plan;
    const std::vector<cluster::ScenarioSpec> specs = {bare, costed,
                                                      twoNodes(7), chaos};

    const cluster::Replays replays = cluster::replay(specs);
    ASSERT_EQ(replays.serial.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_TRUE(replays.agree(i)) << "spec " << i;

    const auto d = [&](std::size_t i) {
        return replays.serial[i].digests;
    };
    // Telemetry is pure observation; cost joins the stats digest and
    // faults change the run itself.
    EXPECT_EQ(d(0).windows, 0u);
    EXPECT_EQ(d(0).stats, d(2).stats);
    EXPECT_NE(d(0).stats, d(1).stats);
    EXPECT_NE(d(2).stats, d(3).stats);
    EXPECT_NE(d(2).windows, d(3).windows);
    EXPECT_GT(replays.serial[1].summary.totalCost, 0.0);
    EXPECT_EQ(replays.serial[0].summary.totalCost, 0.0);
}

} // namespace
