/**
 * @file
 * Allocation budget of the warm invocation path: once a one-node
 * fleet's warm pools are sized, a request through ClusterGateway ->
 * Molecule::invoke -> keep-alive pop -> nIPC delivery -> runc exec
 * reaches the global heap almost never. Coroutine frames come from the
 * FramePool, placement builds its view inline, and the stats index
 * densely. A frame that outgrows the pool's largest size class falls
 * back to operator new once per request and fails the budget. Every
 * operator new in this binary is counted. Under ASan, whose own
 * operator new checks new/delete pairing, the path runs and is
 * checked, and only the budget is skipped.
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
    // Short names: no std::string in a record outgrows its inline
    // buffer.
    t.functions = {"helloworld", "pyaes"};
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
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::ClusterGateway gateway(
        fleet, cluster::GatewayConfig::forFunctions(
                   {"helloworld", "pyaes"}, stats));

    // Prewarm: size the warm pools, the event queue and the frame
    // pool's lists.
    load::OpenLoopGenerator warmup(trace(1, 4.0));
    sim.spawn(load::drive(sim, warmup, gateway));
    sim.run();

    load::OpenLoopGenerator steady(trace(2, 8.0));
    core::StartupManager &startup = fleet.node(0).startup();
    const std::int64_t coldBefore = startup.coldStarts();
    const std::int64_t hitsBefore = startup.warmHits();
    const std::uint64_t before = g_allocCount;
    sim.spawn(load::drive(sim, steady, gateway));
    sim.run();
    const std::uint64_t allocs = g_allocCount - before;

    const std::int64_t hits = startup.warmHits() - hitsBefore;
    ASSERT_GT(hits, 2000);
    EXPECT_EQ(startup.coldStarts(), coldBefore);
    EXPECT_TRUE(gateway.idle());
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
