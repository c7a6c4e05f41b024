/**
 * @file
 * Determinism properties: for a fixed seed, every experiment in this
 * repository is bit-reproducible. These tests run representative
 * scenarios twice (and with different seeds) and compare raw results.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/molecule.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

/** One full cold+warm+chain scenario; returns a latency fingerprint.
 * @param conflictsOut when non-null, the run executes with the
 * sim-time conflict detector enabled and reports its conflict count.
 * @param spansOut when non-null, the run executes with an obs::Tracer
 * attached and reports how many spans it recorded. */
std::vector<std::int64_t>
scenario(std::uint64_t seed, std::size_t *conflictsOut = nullptr,
         std::size_t *spansOut = nullptr)
{
    sim::Simulation sim(seed);
    if (conflictsOut)
        sim.enableConflictTracking();
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    std::optional<obs::Tracer> tracer;
    MoleculeOptions options;
    if (spansOut)
        options.tracer = &tracer.emplace(sim, seed);
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    std::vector<std::int64_t> fingerprint;
    auto cold =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 0})).value();
    fingerprint.push_back(cold.endToEnd.raw());
    auto warm =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 0})).value();
    fingerprint.push_back(warm.endToEnd.raw());
    auto remote =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 1})).value();
    fingerprint.push_back(remote.startup.raw());

    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime.runSync(runtime.invokeChain(spec, cross)).value();
    fingerprint.push_back(rec.endToEnd.raw());
    for (const auto &edge : rec.edgeLatencies)
        fingerprint.push_back(edge.raw());
    if (conflictsOut)
        *conflictsOut = sim.accessLog()->findConflicts().size();
    if (spansOut)
        *spansOut = tracer->records().size();
    return fingerprint;
}

/** FNV-1a digest of a full scenario trace (observers as in
 * scenario()). */
std::uint64_t
traceDigest(std::uint64_t seed, std::size_t *conflictsOut = nullptr,
            std::size_t *spansOut = nullptr)
{
    sim::Fingerprint fp;
    for (auto v : scenario(seed, conflictsOut, spansOut))
        fp.mix(static_cast<std::uint64_t>(v));
    return fp.digest();
}

TEST(Determinism, SameSeedSameFingerprint)
{
    EXPECT_EQ(scenario(42), scenario(42));
    EXPECT_EQ(scenario(7), scenario(7));
}

// Golden digests captured on the pre-rewrite (tombstone + std::function
// priority_queue) DES kernel. The allocation-free queue — and any
// future kernel change — must reproduce the simulated results bit for
// bit: same seed, same digest, forever. If a change legitimately
// alters the cost models (not the kernel), recapture these constants
// and say so in the commit.
TEST(Determinism, GoldenTraceDigestMatchesPreRewriteKernel)
{
    EXPECT_EQ(traceDigest(42), 0x582305e76012b3f7ULL);
    EXPECT_EQ(traceDigest(7), 0x2dacb53306886fbcULL);
    EXPECT_EQ(traceDigest(1), 0x799fabc445a22749ULL);
}

// The same golden digests must hold when the scenarios run as replicas
// on the multi-threaded SweepRunner: thread interleaving must not be
// able to touch simulated results.
TEST(Determinism, GoldenTraceDigestHoldsUnderSweepRunner)
{
    const std::uint64_t seeds[] = {42, 7, 1, 42, 7, 1, 42, 7, 1};
    const std::uint64_t golden[] = {
        0x582305e76012b3f7ULL, 0x2dacb53306886fbcULL,
        0x799fabc445a22749ULL, 0x582305e76012b3f7ULL,
        0x2dacb53306886fbcULL, 0x799fabc445a22749ULL,
        0x582305e76012b3f7ULL, 0x2dacb53306886fbcULL,
        0x799fabc445a22749ULL};
    sim::SweepRunner pool;
    auto digests = pool.map<std::uint64_t>(
        std::size(seeds),
        [&](std::size_t i) { return traceDigest(seeds[i]); });
    for (std::size_t i = 0; i < std::size(seeds); ++i)
        EXPECT_EQ(digests[i], golden[i]) << "replica " << i;
}

// The conflict detector and the tracer are observers: with tracking
// enabled the full scenario must (a) report zero same-tick conflicts —
// the shipped model state never depends on the schedule-sequence
// tie-break — and (b) reproduce the exact golden digests; with a
// Tracer attached it must record spans and reproduce the same
// digests, i.e. observation does not perturb the simulation.
TEST(Determinism, ConflictTrackingIsCleanAndNonPerturbing)
{
    const std::pair<std::uint64_t, std::uint64_t> golden[] = {
        {42, 0x582305e76012b3f7ULL},
        {7, 0x2dacb53306886fbcULL},
        {1, 0x799fabc445a22749ULL},
    };
    for (const auto &[seed, digest] : golden) {
        std::size_t conflicts = 0;
        EXPECT_EQ(traceDigest(seed, &conflicts), digest) << "seed " << seed;
        EXPECT_EQ(conflicts, 0u) << "seed " << seed;
        std::size_t spans = 0;
        EXPECT_EQ(traceDigest(seed, nullptr, &spans), digest)
            << "traced, seed " << seed;
        EXPECT_GT(spans, 0u) << "seed " << seed;
    }
}

TEST(Determinism, DifferentSeedsDifferOnlyInJitter)
{
    // Jitter only perturbs link transfers; the fingerprints must be
    // close (within the 3-sigma jitter envelope) but not identical.
    auto a = scenario(1), b = scenario(2);
    ASSERT_EQ(a.size(), b.size());
    bool anyDifferent = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        anyDifferent |= (a[i] != b[i]);
        EXPECT_NEAR(double(a[i]), double(b[i]),
                    0.15 * double(std::max(a[i], b[i])) + 1000.0);
    }
    EXPECT_TRUE(anyDifferent);
}

TEST(Determinism, RngStreamIndependentOfQueryOrder)
{
    // Reading stats between runs must not consume simulation
    // randomness: two runs with interleaved histogram queries agree.
    sim::Simulation s1(5), s2(5);
    obs::Histogram h;
    for (int i = 0; i < 100; ++i) {
        const double v = s1.rng().uniform();
        h.add(v);
        (void)h.percentile(50); // query mid-stream
        EXPECT_EQ(v, s2.rng().uniform());
    }
}

} // namespace
