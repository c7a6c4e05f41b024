/**
 * @file
 * Telemetry-plane determinism properties.
 *
 * An over-saturated two-node cluster with the full observation stack
 * attached (TimeSeries windows, SloMonitor burn-rate alerts, flight
 * recorder) must produce bit-identical (stats, window, alert) digests
 * across serial runs, re-runs, and sim::SweepRunner replicas, and the
 * window deltas must conserve exactly against the run totals — per
 * seed. `cluster_report slo` drives the same property at CI scale;
 * this is the tier-1 distillation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/scenario.hh"
#include "obs/timeseries.hh"

namespace {

using namespace molecule;
using sim::SimTime;

/** Over-saturate 2 nodes so queues grow and latency alerts must
 * fire. */
cluster::ScenarioSpec
saturated(std::uint64_t seed)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    spec.trace.seed = seed;
    spec.trace.ratePerSecond = 400.0;
    spec.trace.duration = SimTime::seconds(10);
    spec.trace.functions = {"helloworld", "pyaes"};
    spec.admission.queueCapacity = 8192;
    spec.admission.maxOutstandingPerNode = 48;
    obs::SloObjective latency;
    latency.name = "latency-p99";
    latency.thresholdUs = 20'000.0;
    spec.telemetry = obs::SloSpec{.objectives = {latency}};
    return spec;
}

TEST(TelemetryDeterminism, TripleMatchesSerialRerunAndSweepRunner)
{
    std::vector<cluster::ScenarioSpec> specs;
    for (const std::uint64_t seed : {42, 7, 1})
        specs.push_back(saturated(seed));

    const cluster::Replays replays = cluster::replay(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_TRUE(replays.agree(i)) << "seed " << specs[i].trace.seed;
    // Distinct seeds must not collide (the digests are load-bearing).
    EXPECT_NE(replays.serial[0].digests, replays.serial[1].digests);
    EXPECT_NE(replays.serial[1].digests, replays.serial[2].digests);

    for (const cluster::ScenarioSpec &spec : specs) {
        cluster::Scenario scenario(spec);
        scenario.drive();
        obs::TimeSeries &ts = scenario.timeSeries();

        // Window deltas conserve against the run totals.
        const auto completedId = ts.counterId("tenant.completed", 0);
        std::int64_t windowSum = 0;
        for (const auto &w : ts.windows())
            if (const obs::WindowPoint *p = w.find(completedId))
                windowSum += p->count;
        EXPECT_EQ(windowSum, ts.counterValue(completedId));
        EXPECT_EQ(windowSum, scenario.result().summary.completed);

        // Saturation means the latency objective cannot stay green.
        EXPECT_GT(scenario.monitor().alertCount(), 0u);
        EXPECT_GT(ts.windowsClosed(), 0u);
    }
}

} // namespace
