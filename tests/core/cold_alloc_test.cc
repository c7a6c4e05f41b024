/**
 * @file
 * Allocation budget of the cfork cold-start path: a one-node fleet
 * whose warm capacity is 0 cold-starts an instance for every request
 * and evicts it at release. Once the fleet is prewarmed, a cold start
 * plus its eviction reuses the instance row, the process and container
 * records and the address-space capacity of earlier ones, and opens
 * three coroutine frames: the cold start, runc's create pipeline and
 * the eviction (DESIGN.md §4b). The private heap region's record and
 * label buffer are reused as well, so a cold start reaches the heap
 * less than once on average. A
 * frame that outgrows the pool's largest size class is counted on its
 * own and fails the test. Every operator new in this binary is counted.
 * Under ASan, whose own operator new checks new/delete pairing, the
 * reuse paths run and are checked, and only the budget is skipped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/gateway.hh"
#include "sim/simulation.hh"
#include "count_new.hh"

namespace {

using namespace molecule;
using sim::SimTime;

const std::vector<std::string> kFunctions = {"helloworld",
                                             "gzip-compression"};

load::TraceSpec
trace(std::uint64_t seed, double seconds)
{
    load::TraceSpec t;
    t.seed = seed;
    t.ratePerSecond = 400.0;
    t.duration = SimTime::fromSeconds(seconds);
    // One name past the 15-character inline string buffer: its
    // "name#N" ids and region labels need the heap unless reused.
    t.functions = kFunctions;
    return t;
}

TEST(ColdAllocations, SteadyColdStartsStayWithinBudget)
{
    sim::Simulation sim(7);
    cluster::FleetSpec spec;
    spec.nodes = 1;
    // Nothing stays warm: every request cold-starts, every release
    // evicts.
    spec.warmCapacity = 0;
    spec.runtime.placement = core::PlacementConfig::loadAware();
    cluster::Fleet fleet(sim, spec);
    for (const std::string &fn : kFunctions)
        fleet.registerCpuFunction(fn,
                                  {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::ClusterGateway gateway(
        fleet, cluster::GatewayConfig::forFunctions(kFunctions, stats));

    // Prewarm: use up the pooled containers and size the record
    // spares, the warm pools, the event queue and the frame pool.
    load::OpenLoopGenerator warmup(trace(1, 4.0));
    sim.spawn(load::drive(sim, warmup, gateway));
    sim.run();

    load::OpenLoopGenerator steady(trace(2, 8.0));
    core::StartupManager &startup = fleet.node(0).startup();
    const std::int64_t coldBefore = startup.coldStarts();
    const std::int64_t hitsBefore = startup.warmHits();
    const std::int64_t evictionsBefore = startup.evictions();
    const std::uint64_t before = g_allocCount;
    const std::uint64_t bigBefore = g_bigAllocCount;
    const std::uint64_t eventsBefore = sim.eventsFired();
    const std::uint64_t parksBefore = sim.wheelParks();
    sim.spawn(load::drive(sim, steady, gateway));
    sim.run();
    const std::uint64_t allocs = g_allocCount - before;

    const std::int64_t colds = startup.coldStarts() - coldBefore;
    ASSERT_GT(colds, 2000);
    EXPECT_EQ(startup.warmHits(), hitsBefore);
    EXPECT_EQ(startup.evictions() - evictionsBefore, colds);
    EXPECT_TRUE(gateway.idle());
    for (int pu : fleet.node(0).deployment().generalPus())
        EXPECT_EQ(fleet.node(0).deployment().runcOn(pu).instanceCount(),
                  0u);
    const double parksPerEvent =
        double(sim.wheelParks() - parksBefore) /
        double(sim.eventsFired() - eventsBefore);
    std::printf("wheel parks per queued event: %.6f\n", parksPerEvent);
    // Pinned at its reading (0.00112): the event queue's near array
    // holds nearly every event at this depth (DESIGN.md §4b). Event
    // counts do not depend on the allocator, so this holds under ASan
    // too.
    EXPECT_LE(parksPerEvent, 0.00112);
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: the path ran, nothing "
                    "was counted";
#endif
    // A one-off container growth may pass 2 KiB; an outgrown frame
    // does so on every cold start.
    EXPECT_LT(double(g_bigAllocCount - bigBefore) / double(colds), 0.5)
        << "a coroutine frame outgrew the frame pool";
    const double perColdStart = double(allocs) / double(colds);
    std::printf("global allocations per cold start: %.3f\n",
                perColdStart);
    EXPECT_LE(perColdStart, 0.1);
}

} // namespace
