/**
 * @file
 * ClusterGateway: the default dispatch pick, token-bucket shedding,
 * bounded-queue tail drop, arrival accounting conservation, digest
 * reproducibility and the completion path (unknown names, policy
 * feedback, reuse of the per-dispatch records).
 */

#include "cluster/gateway.hh"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hh"

namespace {

using namespace molecule;
using cluster::AdmissionOptions;
using cluster::ClusterGateway;
using cluster::ClusterStats;
using cluster::Fleet;
using cluster::FleetSpec;
using load::Arrival;
using sim::SimTime;

Arrival
arrival(std::uint32_t fn = 0)
{
    Arrival a;
    a.fn = fn;
    return a;
}

TEST(DispatchPolicyTest, LeastOutstandingPicksArgminLowestIdTies)
{
    cluster::LeastOutstandingPolicy p;
    const int out[] = {3, 1, 1, 2};
    EXPECT_EQ(p.pick(arrival(), out, 4), 1);
    const int tied[] = {2, 2, 2};
    EXPECT_EQ(p.pick(arrival(), tied, 4), 0);
    const int full[] = {4, 4};
    EXPECT_EQ(p.pick(arrival(), full, 4), -1);
}

struct Harness
{
    sim::Simulation sim;
    Fleet fleet;
    obs::Registry registry;
    ClusterStats stats;
    cluster::LeastOutstandingPolicy policy;
    /** The gateway's function list (the trace draws from it too). */
    std::vector<std::string> functions{"helloworld", "pyaes"};
    /** The dispatch policy; null runs `policy`. */
    cluster::DispatchPolicy *dispatch = nullptr;
    /** The last run's ClusterGateway::dispatchRecords(). */
    std::size_t dispatchRecords = 0;

    explicit Harness(int nodes = 2, std::uint64_t seed = 42)
        : sim(seed), fleet(sim, spec(nodes)), stats(registry)
    {
        fleet.registerCpuFunction(
            "helloworld", {hw::PuType::HostCpu, hw::PuType::Dpu});
        fleet.registerCpuFunction(
            "pyaes", {hw::PuType::HostCpu, hw::PuType::Dpu});
        fleet.start();
    }

    static FleetSpec
    spec(int nodes)
    {
        FleetSpec s;
        s.nodes = nodes;
        s.dpusPerNode = 1;
        return s;
    }

    cluster::ClusterSummary
    run(const AdmissionOptions &admission, double ratePerSecond,
        double seconds, std::uint64_t seed = 42)
    {
        cluster::GatewayConfig cfg =
            cluster::GatewayConfig::forFunctions(functions, stats);
        cfg.admission = admission;
        cfg.dispatch = dispatch != nullptr ? dispatch : &policy;
        ClusterGateway gateway(fleet, cfg);
        load::TraceSpec trace;
        trace.seed = seed;
        trace.ratePerSecond = ratePerSecond;
        trace.duration = SimTime::fromSeconds(seconds);
        trace.functions = functions;
        load::OpenLoopGenerator gen(trace);
        const SimTime t0 = sim.now();
        sim.spawn(load::drive(sim, gen, gateway));
        sim.run();
        EXPECT_TRUE(gateway.idle());
        dispatchRecords = gateway.dispatchRecords();
        return stats.summarize(sim.now() - t0, fleet.coreTable());
    }
};

TEST(ClusterGatewayTest, ServesEverythingBelowTheAdmittedRate)
{
    Harness h;
    AdmissionOptions admission;
    admission.tokensPerSecond = 200.0;
    admission.bucketCapacity = 100.0;
    const auto s = h.run(admission, 50.0, 4.0);
    EXPECT_GT(s.arrivals, 0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.dropped, 0);
    EXPECT_EQ(s.errors, 0);
    EXPECT_EQ(s.completed, s.arrivals);
    EXPECT_GT(s.p50Us, 0.0);
    EXPECT_LE(s.p50Us, s.p99Us);
    EXPECT_LE(s.p99Us, s.p999Us);
}

TEST(ClusterGatewayTest, TokenBucketShedsAboveTheAdmittedRate)
{
    Harness h;
    AdmissionOptions admission;
    admission.tokensPerSecond = 50.0;
    admission.bucketCapacity = 10.0;
    const auto s = h.run(admission, 400.0, 4.0);
    EXPECT_GT(s.shed, 0);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
    // Admitted rate hugs the bucket rate (plus the initial burst).
    EXPECT_NEAR(double(s.admitted), 50.0 * 4.0 + 10.0,
                0.15 * double(s.admitted));
}

TEST(ClusterGatewayTest, UnlimitedBucketNeverSheds)
{
    Harness h;
    AdmissionOptions admission;
    admission.tokensPerSecond = 0.0; // disabled
    const auto s = h.run(admission, 300.0, 2.0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.completed + s.errors, s.arrivals);
}

TEST(ClusterGatewayTest, BoundedQueueDropsNewestWhenFull)
{
    Harness h;
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 4;
    const auto s = h.run(admission, 400.0, 2.0);
    EXPECT_GT(s.dropped, 0);
    EXPECT_LE(s.queueMaxDepth, 4);
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
}

TEST(ClusterGatewayTest, QueueWaitShowsUpInTheScoreboard)
{
    Harness h;
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 1;
    admission.queueCapacity = 256;
    const auto s = h.run(admission, 200.0, 2.0);
    EXPECT_GT(s.queueMaxDepth, 0);
    EXPECT_GT(s.queueWaitP99Us, 0.0);
}

TEST(ClusterGatewayTest, DigestsReproduceAcrossIdenticalRuns)
{
    auto digest = [](std::uint64_t seed) {
        Harness h(2, seed);
        AdmissionOptions admission;
        admission.tokensPerSecond = 100.0;
        h.run(admission, 150.0, 2.0, seed);
        return h.stats.digest();
    };
    EXPECT_EQ(digest(42), digest(42));
    EXPECT_NE(digest(42), digest(43));
}

TEST(ClusterGatewayTest, UtilizationIsChargedPerPu)
{
    Harness h;
    AdmissionOptions admission;
    const auto s = h.run(admission, 100.0, 2.0);
    ASSERT_FALSE(s.utilization.empty());
    double total = 0.0;
    for (const auto &u : s.utilization) {
        EXPECT_GE(u.node, 0);
        EXPECT_LT(u.node, h.fleet.size());
        total += u.utilization;
    }
    EXPECT_GT(total, 0.0);
}

/** Least-outstanding, counting completions per arrival and checking
 * each against the node its dispatch picked. */
class CountingPolicy final : public cluster::DispatchPolicy
{
  public:
    const char *name() const override { return "counting"; }

    int
    pick(const Arrival &a, std::span<const int> outstanding,
         int cap) override
    {
        const int node = inner_.pick(a, outstanding, cap);
        if (node >= 0)
            picked.push_back({a, node});
        return node;
    }

    void
    onComplete(const Arrival &a, int node) override
    {
        ++completions;
        ++completionsByFn[a.fn];
        // Completions come back in any order: use up this arrival's
        // pick, which must name the same node.
        for (auto it = picked.begin(); it != picked.end(); ++it) {
            if (it->first == a && it->second == node) {
                picked.erase(it);
                return;
            }
        }
        ++unmatched;
    }

    /** Picks (arrival, node) that have not completed yet. Only a pick
     * that dispatched stays: a queued arrival's failed pick returns
     * -1 and is not kept. */
    std::vector<std::pair<Arrival, int>> picked;
    std::int64_t completions = 0;
    std::int64_t completionsByFn[2] = {};
    /** Completions with no outstanding pick of that arrival on that
     * node. */
    std::int64_t unmatched = 0;

  private:
    cluster::LeastOutstandingPolicy inner_;
};

TEST(ClusterGatewayTest, UnknownNamesCompleteAsNotFoundErrors)
{
    Harness h;
    h.functions = {"helloworld", "no-such-function"};
    CountingPolicy counting;
    h.dispatch = &counting;
    AdmissionOptions admission;
    const auto s = h.run(admission, 200.0, 2.0);
    ASSERT_GT(counting.completionsByFn[1], 0);
    // Every arrival was admitted and completed one way or the other:
    // the known name served, the unknown one failed.
    EXPECT_EQ(s.arrivals, s.admitted + s.shed + s.dropped);
    EXPECT_EQ(s.admitted, s.completed + s.errors);
    EXPECT_EQ(s.errors, counting.completionsByFn[1]);
    EXPECT_EQ(s.completed, counting.completionsByFn[0]);
    // The by-name path is the one that knows the name is missing.
    const auto missing = h.fleet.node(0).runSync(
        h.fleet.node(0).invoke("no-such-function"));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code(), core::Errc::NotFound);
}

TEST(ClusterGatewayTest, PolicySeesOneCompletionPerDispatchOnItsNode)
{
    Harness h;
    CountingPolicy counting;
    h.dispatch = &counting;
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 2;
    admission.queueCapacity = 16;
    const auto s = h.run(admission, 400.0, 2.0);
    EXPECT_GT(s.queueMaxDepth, 0); // queued arrivals dispatched late
    EXPECT_EQ(counting.completions, s.admitted);
    EXPECT_EQ(counting.completions, s.completed + s.errors);
    EXPECT_EQ(counting.unmatched, 0);
    EXPECT_TRUE(counting.picked.empty());
}

TEST(ClusterGatewayTest, DispatchRecordsStayWithinTheInFlightCap)
{
    Harness h;
    AdmissionOptions admission;
    admission.maxOutstandingPerNode = 3;
    admission.queueCapacity = 64;
    const auto s = h.run(admission, 1000.0, 2.0);
    // Saturated: the backlog formed, so every slot was in use at once.
    EXPECT_GT(s.queueMaxDepth, 0);
    EXPECT_GT(s.completed, 1000);
    EXPECT_GT(h.dispatchRecords, 0u);
    EXPECT_LE(h.dispatchRecords,
              std::size_t(h.fleet.size()) *
                  std::size_t(admission.maxOutstandingPerNode));
}

} // namespace
