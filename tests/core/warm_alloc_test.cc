/**
 * @file
 * Allocation budget of the warm invocation path: once a one-node
 * fleet's warm pools are sized, a request through ClusterGateway ->
 * Molecule::invoke -> keep-alive pop -> nIPC delivery -> runc exec
 * reaches the global heap almost never and opens two coroutine frames.
 * Frames come from the FramePool, placement builds its view inline,
 * records view the function's name, and the stats index densely. A
 * frame that outgrows the pool's largest size class falls back to
 * operator new once per request and fails the budget. Every
 * operator new in this binary is counted. Under ASan, whose own
 * operator new checks new/delete pairing, the path runs and is
 * checked, and only the allocation budget is skipped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "cluster/gateway.hh"
#include "sim/simulation.hh"
#include "count_new.hh"

namespace {

using namespace molecule;
using sim::SimTime;

load::TraceSpec
trace(std::uint64_t seed, double seconds)
{
    load::TraceSpec t;
    t.seed = seed;
    t.ratePerSecond = 400.0;
    t.duration = SimTime::fromSeconds(seconds);
    // gzip-compression's 16 characters outgrow a std::string's inline
    // buffer: a record that copied the name would allocate.
    t.functions = {"helloworld", "pyaes", "gzip-compression"};
    return t;
}

TEST(WarmAllocations, SteadyWarmRequestsStayWithinBudget)
{
    sim::Simulation sim(7);
    cluster::FleetSpec spec;
    spec.nodes = 1;
    spec.runtime.placement = core::PlacementConfig::loadAware();
    cluster::Fleet fleet(sim, spec);
    fleet.registerCpuFunction("helloworld",
                              {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.registerCpuFunction("pyaes",
                              {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.registerCpuFunction("gzip-compression",
                              {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::ClusterGateway gateway(
        fleet, cluster::GatewayConfig::forFunctions(
                   {"helloworld", "pyaes", "gzip-compression"}, stats));

    // Prewarm: size the warm pools, the event queue and the frame
    // pool's lists. Each seed ranks the functions' popularity anew,
    // and gzip-compression runs for ~180 ms, so a pool follows its
    // function's peak concurrency under that seed: the warm-up is the
    // measured stream's seed run twice as long.
    load::OpenLoopGenerator warmup(trace(2, 16.0));
    sim.spawn(load::drive(sim, warmup, gateway));
    sim.run();

    load::OpenLoopGenerator steady(trace(2, 8.0));
    core::StartupManager &startup = fleet.node(0).startup();
    const std::int64_t coldBefore = startup.coldStarts();
    const std::int64_t hitsBefore = startup.warmHits();
    const std::uint64_t before = g_allocCount;
    const std::uint64_t framesBefore = sim::detail::FramePool::allocated();
    const std::uint64_t eventsBefore = sim.eventsFired();
    const std::uint64_t parksBefore = sim.wheelParks();
    sim.spawn(load::drive(sim, steady, gateway));
    sim.run();
    const std::uint64_t allocs = g_allocCount - before;
    // The drive loop's frame is the one frame not per request.
    const std::uint64_t frames =
        sim::detail::FramePool::allocated() - framesBefore - 1;

    const std::int64_t hits = startup.warmHits() - hitsBefore;
    ASSERT_GT(hits, 2000);
    EXPECT_EQ(startup.coldStarts(), coldBefore);
    EXPECT_TRUE(gateway.idle());
    // Molecule::invokeCpu and RuncRuntime::invoke: the gateway's
    // completion sink and the inline manager->worker hop open none.
    const double framesPerRequest = double(frames) / double(hits);
    std::printf("coroutine frames per warm request: %.3f\n",
                framesPerRequest);
    EXPECT_LE(framesPerRequest, 2.0);
    const double eventsPerRequest =
        double(sim.eventsFired() - eventsBefore) / double(hits);
    std::printf("queued events per warm request: %.3f\n",
                eventsPerRequest);
    // Pinned at its reading (2.993): one more queued wake-up per
    // request fails it. Event counts do not depend on the allocator,
    // so this holds under ASan too.
    EXPECT_LE(eventsPerRequest, 2.993);
    const double parksPerEvent =
        double(sim.wheelParks() - parksBefore) /
        double(sim.eventsFired() - eventsBefore);
    std::printf("wheel parks per queued event: %.6f\n", parksPerEvent);
    // Pinned at its reading (0): the event queue's near array holds
    // every event at this depth (DESIGN.md §4b).
    EXPECT_EQ(parksPerEvent, 0.0);
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: the path ran, nothing "
                    "was counted";
#endif
    const double perRequest = double(allocs) / double(hits);
    std::printf("global allocations per warm request: %.3f\n",
                perRequest);
    EXPECT_LE(perRequest, 0.05);
}

} // namespace
