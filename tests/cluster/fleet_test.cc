/**
 * @file
 * Fleet: construction, catalog fan-out, core table — and the cluster
 * golden: generator and fleet digests bit-identical across replays,
 * serial and on sim::SweepRunner workers.
 */

#include "cluster/fleet.hh"

#include <gtest/gtest.h>

#include "cluster/gateway.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;
using cluster::Fleet;
using cluster::FleetSpec;
using sim::SimTime;

TEST(FleetTest, BuildsTheRequestedShape)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 3;
    spec.dpusPerNode = 2;
    Fleet fleet(sim, spec);
    EXPECT_EQ(fleet.size(), 3);
    EXPECT_EQ(fleet.totalPus(), 9); // host + 2 DPUs per node
    for (int i = 0; i < fleet.size(); ++i)
        EXPECT_EQ(fleet.computer(i).puCount(), 3);
}

TEST(FleetTest, CoreTableCoversEveryPu)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 2;
    spec.dpusPerNode = 1;
    Fleet fleet(sim, spec);
    const auto cores = fleet.coreTable();
    EXPECT_EQ(int(cores.size()), fleet.totalPus());
    for (const auto &[key, n] : cores)
        EXPECT_GT(n, 0);
}

TEST(FleetTest, RegistrationFansOutToEveryNode)
{
    sim::Simulation sim;
    FleetSpec spec;
    spec.nodes = 2;
    spec.dpusPerNode = 1;
    Fleet fleet(sim, spec);
    fleet.registerCpuFunction("helloworld",
                              {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();
    for (int i = 0; i < fleet.size(); ++i) {
        const auto rec =
            fleet.node(i).runSync(fleet.node(i).invoke("helloworld"));
        ASSERT_TRUE(rec.ok()) << "node " << i;
        EXPECT_GT(rec.value().endToEnd, SimTime(0));
    }
}

/** One small end-to-end cluster run; returns (stream, fleet) digests. */
std::pair<std::uint64_t, std::uint64_t>
goldenRun(std::uint64_t seed)
{
    load::TraceSpec trace;
    trace.seed = seed;
    trace.ratePerSecond = 120.0;
    trace.duration = SimTime::fromSeconds(3);
    trace.functions = {"helloworld", "pyaes"};
    trace.tenants = {
        {"alpha", 2.0, 1.2, 1},
        {"beta", 1.0, 0.9, 2},
    };

    sim::Simulation sim(seed);
    FleetSpec fleetSpec;
    fleetSpec.nodes = 2;
    fleetSpec.dpusPerNode = 1;
    Fleet fleet(sim, fleetSpec);
    for (const auto &fn : trace.functions)
        fleet.registerCpuFunction(fn,
                                  {hw::PuType::HostCpu, hw::PuType::Dpu});
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::AdmissionOptions admission;
    admission.tokensPerSecond = 100.0;
    admission.bucketCapacity = 20.0;
    cluster::GatewayConfig cfg =
        cluster::GatewayConfig::forFunctions(trace.functions, stats);
    cfg.admission = admission;
    cluster::ClusterGateway gateway(fleet, cfg);

    load::OpenLoopGenerator gen(trace);
    sim.spawn(load::drive(sim, gen, gateway));
    sim.run();
    return {load::streamDigest(trace), stats.digest()};
}

TEST(ClusterGoldenTest, DigestsReplayBitForBitSerially)
{
    for (std::uint64_t seed : {42ULL, 7ULL, 1ULL}) {
        const auto a = goldenRun(seed);
        const auto b = goldenRun(seed);
        EXPECT_EQ(a.first, b.first) << "stream, seed " << seed;
        EXPECT_EQ(a.second, b.second) << "fleet, seed " << seed;
    }
}

TEST(ClusterGoldenTest, ThreadedReplicasMatchTheSerialGolden)
{
    constexpr std::uint64_t kSeeds[] = {42, 7, 1, 1234, 5678};
    constexpr std::size_t kN = std::size(kSeeds);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> serial;
    serial.reserve(kN);
    for (std::uint64_t seed : kSeeds)
        serial.push_back(goldenRun(seed));

    sim::SweepRunner pool;
    using Digests = std::pair<std::uint64_t, std::uint64_t>;
    const auto threaded = pool.map<Digests>(
        kN, [&](std::size_t i) { return goldenRun(kSeeds[i]); });

    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(serial[i].first, threaded[i].first)
            << "stream, seed " << kSeeds[i];
        EXPECT_EQ(serial[i].second, threaded[i].second)
            << "fleet, seed " << kSeeds[i];
    }
    // Distinct seeds produce distinct streams (sanity on the golden).
    EXPECT_NE(serial[0].first, serial[1].first);
}

} // namespace
