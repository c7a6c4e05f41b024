/**
 * @file
 * OpenLoopGenerator: stream contracts (monotonic bounded instants,
 * bit-exact replay), arrival-process statistics (Poisson rate, MMPP
 * uplift, diurnal modulation), Zipf skew, tenant mix, and DES replay
 * through load::drive.
 */

#include "load/generator.hh"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "sim/simulation.hh"

namespace {

using namespace molecule;
using load::Arrival;
using load::ArrivalKind;
using load::OpenLoopGenerator;
using load::TraceSpec;
using sim::SimTime;

TraceSpec
baseSpec(ArrivalKind kind = ArrivalKind::Poisson)
{
    TraceSpec spec;
    spec.seed = 7;
    spec.ratePerSecond = 2000.0;
    spec.duration = SimTime::fromSeconds(20);
    spec.arrival = kind;
    spec.functions = {"f0", "f1", "f2", "f3", "f4", "f5"};
    return spec;
}

TEST(OpenLoopGeneratorTest, InstantsAreMonotonicAndBounded)
{
    OpenLoopGenerator gen(baseSpec());
    Arrival a;
    SimTime last(0);
    while (gen.next(a)) {
        EXPECT_GE(a.at, last);
        EXPECT_LT(a.at, gen.spec().duration);
        EXPECT_LT(a.fn, gen.spec().functions.size());
        last = a.at;
    }
    EXPECT_GT(gen.emitted(), 0u);
}

TEST(OpenLoopGeneratorTest, ResetReplaysBitForBit)
{
    OpenLoopGenerator gen(baseSpec(ArrivalKind::Mmpp));
    const auto first = gen.generate();
    gen.reset();
    const auto second = gen.generate();
    ASSERT_EQ(first.size(), second.size());
    EXPECT_TRUE(first == second);
}

TEST(OpenLoopGeneratorTest, TwoGeneratorsFromOneSpecAgree)
{
    const TraceSpec spec = baseSpec(ArrivalKind::Diurnal);
    EXPECT_EQ(load::streamDigest(spec), load::streamDigest(spec));
    OpenLoopGenerator a(spec), b(spec);
    EXPECT_TRUE(a.generate() == b.generate());
}

TEST(OpenLoopGeneratorTest, DifferentSeedsDiverge)
{
    TraceSpec a = baseSpec(), b = baseSpec();
    b.seed = a.seed + 1;
    EXPECT_NE(load::streamDigest(a), load::streamDigest(b));
}

TEST(OpenLoopGeneratorTest, PoissonHitsTheMeanRate)
{
    const TraceSpec spec = baseSpec();
    OpenLoopGenerator gen(spec);
    Arrival a;
    std::uint64_t n = 0;
    while (gen.next(a))
        ++n;
    const double expected = spec.expectedArrivals();
    // 40k arrivals: +-5% catches a wrong-by-a-factor bug, not noise.
    EXPECT_NEAR(double(n), expected, expected * 0.05);
}

TEST(OpenLoopGeneratorTest, MmppUpliftsTheArrivalCount)
{
    TraceSpec mmpp = baseSpec(ArrivalKind::Mmpp);
    mmpp.burstFactor = 8.0;
    mmpp.meanDwellBase = SimTime::fromSeconds(5);
    mmpp.meanDwellBurst = SimTime::fromSeconds(1);
    OpenLoopGenerator gen(mmpp);
    Arrival a;
    std::uint64_t n = 0;
    while (gen.next(a))
        ++n;
    // Time-weighted rate is (5/6 + 8/6) x base; dwell sampling is
    // noisy over a 20 s horizon, so only require a clear uplift over
    // plain Poisson and a count below the all-burst ceiling.
    const double base = mmpp.ratePerSecond *
                        mmpp.duration.toSeconds();
    EXPECT_GT(double(n), base * 1.3);
    EXPECT_LT(double(n), base * 8.0);
}

TEST(OpenLoopGeneratorTest, MmppDegenerateDwellsCollapseToPoisson)
{
    TraceSpec mmpp = baseSpec(ArrivalKind::Mmpp);
    mmpp.meanDwellBase = SimTime(0);
    TraceSpec poisson = baseSpec(ArrivalKind::Poisson);
    OpenLoopGenerator a(mmpp), b(poisson);
    EXPECT_TRUE(a.generate() == b.generate());
}

TEST(OpenLoopGeneratorTest, DiurnalModulatesWithinThePeriod)
{
    TraceSpec spec = baseSpec(ArrivalKind::Diurnal);
    spec.diurnalAmplitude = 0.9;
    spec.diurnalPeriod = spec.duration; // one full day per stream
    OpenLoopGenerator gen(spec);
    Arrival a;
    // First half of the sinusoid is the peak, second the trough.
    std::uint64_t firstHalf = 0, secondHalf = 0;
    const SimTime mid = spec.duration / 2;
    while (gen.next(a))
        (a.at < mid ? firstHalf : secondHalf)++;
    EXPECT_GT(double(firstHalf), double(secondHalf) * 1.5);
}

TEST(OpenLoopGeneratorTest, ZipfSkewsTheFunctionPopularity)
{
    TraceSpec spec = baseSpec();
    spec.tenants = {{"t", 1.0, 1.4, 0}};
    OpenLoopGenerator gen(spec);
    Arrival a;
    std::map<std::uint32_t, std::uint64_t> byFn;
    while (gen.next(a))
        byFn[a.fn]++;
    std::vector<std::uint64_t> counts;
    for (const auto &[fn, n] : byFn)
        counts.push_back(n);
    ASSERT_EQ(counts.size(), spec.functions.size());
    std::sort(counts.begin(), counts.end());
    // Rank-1 vs rank-2 ratio for s=1.4 is 2^1.4 ~ 2.6; demand at
    // least 2x to leave sampling noise room, and a long tail.
    EXPECT_GT(double(counts[counts.size() - 1]),
              2.0 * double(counts[counts.size() - 2]));
    EXPECT_GT(counts.front(), 0u);
}

TEST(OpenLoopGeneratorTest, ZipfExponentZeroIsUniform)
{
    TraceSpec spec = baseSpec();
    spec.tenants = {{"t", 1.0, 0.0, 0}};
    OpenLoopGenerator gen(spec);
    Arrival a;
    std::map<std::uint32_t, std::uint64_t> byFn;
    while (gen.next(a))
        byFn[a.fn]++;
    ASSERT_EQ(byFn.size(), spec.functions.size());
    const double uniform = 1.0 / double(spec.functions.size());
    for (const auto &[fn, n] : byFn)
        EXPECT_NEAR(double(n) / double(gen.emitted()), uniform, 0.05)
            << "function " << fn;
}

TEST(OpenLoopGeneratorTest, TenantSharesSplitTheStream)
{
    TraceSpec spec = baseSpec();
    spec.tenants = {
        {"alpha", 3.0, 1.1, 1},
        {"beta", 1.0, 1.1, 2},
    };
    OpenLoopGenerator gen(spec);
    Arrival a;
    std::uint64_t alpha = 0, beta = 0;
    while (gen.next(a))
        (a.tenant == 0 ? alpha : beta)++;
    const double total = double(alpha + beta);
    EXPECT_NEAR(double(alpha) / total, 0.75, 0.02);
}

TEST(OpenLoopGeneratorTest, TenantSaltsPermuteThePopularity)
{
    // Same mix, different salts: the hot function must differ for at
    // least one pair of tenants somewhere in the seed space.
    TraceSpec spec = baseSpec();
    spec.tenants = {
        {"alpha", 1.0, 1.4, 1},
        {"beta", 1.0, 1.4, 2},
    };
    OpenLoopGenerator gen(spec);
    Arrival a;
    std::map<std::uint32_t, std::uint64_t> alphaByFn, betaByFn;
    while (gen.next(a))
        (a.tenant == 0 ? alphaByFn : betaByFn)[a.fn]++;
    auto hot = [](const std::map<std::uint32_t, std::uint64_t> &m) {
        std::uint32_t best = 0;
        std::uint64_t n = 0;
        for (const auto &[fn, c] : m)
            if (c > n) {
                n = c;
                best = fn;
            }
        return best;
    };
    EXPECT_NE(hot(alphaByFn), hot(betaByFn));
}

TEST(OpenLoopGeneratorTest, EmptySpecsProduceNothing)
{
    TraceSpec zeroRate = baseSpec();
    zeroRate.ratePerSecond = 0.0;
    OpenLoopGenerator gen(zeroRate);
    Arrival a;
    EXPECT_FALSE(gen.next(a));
    EXPECT_EQ(gen.emitted(), 0u);

    TraceSpec zeroDur = baseSpec();
    zeroDur.duration = SimTime(0);
    OpenLoopGenerator gen2(zeroDur);
    EXPECT_FALSE(gen2.next(a));
}

TEST(OpenLoopGeneratorTest, NoFunctionsMeansIndexZero)
{
    TraceSpec spec = baseSpec();
    spec.functions.clear();
    spec.duration = SimTime::fromSeconds(1);
    OpenLoopGenerator gen(spec);
    Arrival a;
    while (gen.next(a))
        EXPECT_EQ(a.fn, 0u);
}

/** Sink recording (sim time, arrival) pairs. */
struct Recorder final : load::ArrivalSink
{
    sim::Simulation &sim;
    std::vector<std::pair<SimTime, Arrival>> seen;

    explicit Recorder(sim::Simulation &s) : sim(s) {}

    void
    onArrival(const Arrival &a) override
    {
        seen.emplace_back(sim.now(), a);
    }
};

TEST(DriveTest, DeliversEveryArrivalAtItsInstant)
{
    TraceSpec spec = baseSpec();
    spec.duration = SimTime::fromSeconds(2);
    OpenLoopGenerator expected(spec);
    const auto stream = expected.generate();

    sim::Simulation sim;
    OpenLoopGenerator gen(spec);
    Recorder recorder(sim);
    sim.spawn(load::drive(sim, gen, recorder));
    sim.run();

    ASSERT_EQ(recorder.seen.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(recorder.seen[i].first, stream[i].at);
        EXPECT_EQ(recorder.seen[i].second.at, stream[i].at);
        EXPECT_EQ(recorder.seen[i].second.fn, stream[i].fn);
    }
}

TEST(DriveTest, RebasesOntoTheCurrentClock)
{
    TraceSpec spec = baseSpec();
    spec.duration = SimTime::fromSeconds(1);
    OpenLoopGenerator reference(spec);
    const auto stream = reference.generate();

    sim::Simulation sim;
    const SimTime skew = SimTime::fromSeconds(3);
    OpenLoopGenerator gen(spec);
    Recorder recorder(sim);
    sim.spawn([](sim::Simulation &s, OpenLoopGenerator &g,
                 Recorder &r, SimTime delay) -> sim::Task<> {
        co_await s.delay(delay);
        co_await load::drive(s, g, r);
    }(sim, gen, recorder, skew));
    sim.run();

    ASSERT_EQ(recorder.seen.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(recorder.seen[i].second.at, skew + stream[i].at);
}

} // namespace
