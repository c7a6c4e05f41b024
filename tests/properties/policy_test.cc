/**
 * @file
 * Policy-layer determinism suite.
 *
 * The policy seams (PlacementPolicy, KeepAliveStrategy) widen the
 * space of runtime behaviors; this suite pins the two properties that
 * keep the repo's replayability story intact across that space:
 *
 *  - policy swap does not perturb: installing the default policies
 *    explicitly yields the exact (placement, eviction, startup) digest
 *    triple of a runtime that never touched the policy knobs — the
 *    goldens in determinism_test keep guarding the default path;
 *  - per-policy replay: for every placement x keep-alive combo, the
 *    digest triple is bit-identical serial vs re-run vs SweepRunner
 *    worker threads;
 *  - the policies genuinely diverge under load (different digests),
 *    so the combos raced by policy_report are distinct behaviors, not
 *    five names for one.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "load/generator.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using core::PlacementConfig;
using hw::PuType;

struct Triple
{
    std::uint64_t place = 0;
    std::uint64_t evict = 0;
    std::uint64_t startup = 0;

    bool
    operator==(const Triple &o) const
    {
        return place == o.place && evict == o.evict &&
               startup == o.startup;
    }
};

sim::Task<>
fire(Molecule *m, const std::string &fn_in)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string fn = fn_in;
    (void)co_await m->invoke(fn); // The scheduler picks the PU.
}

/**
 * Open loop: every arrival spawns its invocation, so arrivals overlap
 * and in-flight counts and warm pools actually exercise the policies.
 */
struct Spawner final : load::ArrivalSink
{
    Molecule &m;
    const std::vector<std::string> &fns;

    Spawner(Molecule &runtime, const std::vector<std::string> &names)
        : m(runtime), fns(names)
    {
    }

    void
    onArrival(const load::Arrival &a) override
    {
        m.simulation().spawn(fire(&m, fns[a.fn]));
    }
};

/**
 * One seeded burst against a CPU+2xDPU server: 200 req/s of a
 * Zipf-skewed FunctionBench mix with a tight warm budget, so
 * placement sees saturation and keep-alive sees eviction churn.
 * @p explicitPolicies false leaves MoleculeOptions untouched.
 */
Triple
runScenario(std::uint64_t seed, const PlacementConfig &placement,
            const KeepAliveConfig &keepAlive,
            bool explicitPolicies = true)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    if (explicitPolicies) {
        options.placement = placement;
        options.startup.keepAlive = keepAlive;
    }
    options.startup.globalWarmCapacityPerPu = 2;
    Molecule runtime(*computer, options);
    const std::vector<std::string> fns{"helloworld", "pyaes", "dd",
                                       "gzip-compression"};
    for (const auto &fn : fns)
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    load::TraceSpec spec;
    spec.seed = seed;
    spec.ratePerSecond = 200;
    spec.duration = sim::SimTime::seconds(5);
    spec.functions = fns;
    load::OpenLoopGenerator gen(std::move(spec));
    Spawner spawner(runtime, fns);
    sim.spawn(load::drive(sim, gen, spawner));
    sim.run();

    Triple t;
    t.place = runtime.scheduler().placementDigest();
    t.evict = runtime.startup().evictionDigest();
    sim::Fingerprint fp;
    fp.mix(std::uint64_t(runtime.startup().coldStarts()));
    fp.mix(std::uint64_t(runtime.startup().warmHits()));
    fp.mix(std::uint64_t(runtime.startup().evictions()));
    t.startup = fp.digest();
    return t;
}

struct Combo
{
    const char *label;
    PlacementConfig placement;
    KeepAliveConfig keepAlive;
};

std::vector<Combo>
combos()
{
    return {
        {"po+lru", PlacementConfig::priceOrdered(),
         KeepAliveConfig::lru()},
        {"la+lru", PlacementConfig::loadAware(),
         KeepAliveConfig::lru()},
        {"lo+lru", PlacementConfig::locality(),
         KeepAliveConfig::lru()},
        {"po+gd", PlacementConfig::priceOrdered(),
         KeepAliveConfig::greedyDual()},
        {"po+hist", PlacementConfig::priceOrdered(),
         KeepAliveConfig::histogram()},
    };
}

TEST(PolicyDeterminism, SwapDoesNotPerturbTheDefaultPath)
{
    for (std::uint64_t seed : {42ull, 7ull}) {
        const Triple implicit =
            runScenario(seed, PlacementConfig::priceOrdered(),
                        KeepAliveConfig::lru(), false);
        const Triple explicitDefaults =
            runScenario(seed, PlacementConfig::priceOrdered(),
                        KeepAliveConfig::lru(), true);
        EXPECT_EQ(implicit, explicitDefaults) << "seed " << seed;
    }
}

TEST(PolicyDeterminism, TripleStableSerialRerunAndSweepRunner)
{
    const auto race = combos();
    const std::uint64_t seed = 42;

    std::vector<Triple> serial;
    for (const auto &c : race)
        serial.push_back(runScenario(seed, c.placement, c.keepAlive));

    for (std::size_t i = 0; i < race.size(); ++i)
        EXPECT_EQ(serial[i],
                  runScenario(seed, race[i].placement,
                              race[i].keepAlive))
            << race[i].label << " differs on re-run";

    sim::SweepRunner pool;
    const auto swept = pool.map<Triple>(
        race.size(), [&](std::size_t i) {
            return runScenario(seed, race[i].placement,
                               race[i].keepAlive);
        });
    for (std::size_t i = 0; i < race.size(); ++i)
        EXPECT_EQ(serial[i], swept[i])
            << race[i].label << " differs under SweepRunner";
}

TEST(PolicyDeterminism, PlacementPoliciesDivergeUnderLoad)
{
    // 200 req/s against 8 ARM cores saturates the first DPU, so the
    // spill policy must take different decisions than the default.
    const Triple po = runScenario(42, PlacementConfig::priceOrdered(),
                                  KeepAliveConfig::lru());
    const Triple la = runScenario(42, PlacementConfig::loadAware(),
                                  KeepAliveConfig::lru());
    EXPECT_NE(po.place, la.place);
}

TEST(PolicyDeterminism, KeepAliveStrategiesDivergeUnderChurn)
{
    // Warm budget 2 across 4 functions: eviction order is exercised
    // constantly, and the three strategies order it differently.
    const Triple lru = runScenario(7, PlacementConfig::priceOrdered(),
                                   KeepAliveConfig::lru());
    const Triple gd = runScenario(7, PlacementConfig::priceOrdered(),
                                  KeepAliveConfig::greedyDual());
    EXPECT_NE(lru.evict, gd.evict);
}

TEST(PolicyDeterminism, SeedsProduceDistinctRuns)
{
    const Triple a = runScenario(42, PlacementConfig::loadAware(),
                                 KeepAliveConfig::lru());
    const Triple b = runScenario(7, PlacementConfig::loadAware(),
                                 KeepAliveConfig::lru());
    EXPECT_NE(a.place, b.place);
}

} // namespace
