/**
 * @file
 * Unit tests for the placement-policy seam: the three shipped
 * strategies over synthetic PlacementViews, plus the DPU-saturation
 * spill regression on the real runtime (the pickPu-never-spills bug
 * the load-aware policy exists to fix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"

namespace {

using namespace molecule;
using core::FunctionDef;
using core::LoadAwarePolicy;
using core::LocalityAffinityPolicy;
using core::Molecule;
using core::MoleculeOptions;
using core::PlacementConfig;
using core::PlacementRequest;
using core::PlacementView;
using core::PriceOrderedPolicy;
using core::PuView;
using hw::PuType;

/** A host (pu 0, 96 cores) + two DPUs (pu 1/2, 8 cores), DPU profile
 * cheaper — the canonical CPU+DPU server shape. */
std::vector<PuView>
cpuDpuViews()
{
    PuView host;
    host.pu = 0;
    host.kind = PuType::HostCpu;
    host.price = 1.0;
    host.profileRank = 1;
    host.cores = 96;
    host.freeBytes = 1 << 30;
    host.needBytes = 1 << 20;
    PuView dpu1 = host;
    dpu1.pu = 1;
    dpu1.kind = PuType::Dpu;
    dpu1.price = 0.3;
    dpu1.profileRank = 0;
    dpu1.cores = 8;
    PuView dpu2 = dpu1;
    dpu2.pu = 2;
    return {host, dpu1, dpu2};
}

PlacementRequest
anyRequest()
{
    static FunctionDef def;
    PlacementRequest req;
    req.fn = &def;
    return req;
}

TEST(PriceOrdered, CheapestKindLowestIdWins)
{
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(cpuDpuViews())), 1);
}

TEST(PriceOrdered, IgnoresLoadByDesign)
{
    // The golden-digest-compatible default never looks at outstanding
    // work: a drowning DPU still wins over an idle host.
    auto views = cpuDpuViews();
    views[1].outstanding = 1000;
    views[2].outstanding = 1000;
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 1);
}

TEST(PriceOrdered, SkipsIneligiblePus)
{
    auto views = cpuDpuViews();
    views[1].freeBytes = 0; // memory-full
    views[2].down = true;   // crashed
    PriceOrderedPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);

    views[0].excluded = true;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), -1);
}

TEST(LoadAware, BalancesWithinTheCheapKind)
{
    auto views = cpuDpuViews();
    views[1].outstanding = 5;
    views[2].outstanding = 2;
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(LoadAware, SpillsToHostWhenDpusSaturate)
{
    auto views = cpuDpuViews();
    views[1].outstanding = 8; // 1.0 load/core at 8 cores
    views[2].outstanding = 8;
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(LoadAware, EveryKindSaturatedPicksGloballyLeastLoaded)
{
    auto views = cpuDpuViews();
    views[0].outstanding = 96; // 1.0 load/core
    views[1].outstanding = 16; // 2.0
    views[2].outstanding = 12; // 1.5
    LoadAwarePolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(Locality, WarmSandboxesAttract)
{
    auto views = cpuDpuViews();
    views[0].warmSandboxes = 2; // host holds the function's state
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 0);
}

TEST(Locality, MostWarmEntriesWinPriceBreaksTies)
{
    auto views = cpuDpuViews();
    views[0].warmSandboxes = 1;
    views[2].warmSandboxes = 3;
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);

    views[0].warmSandboxes = 3; // tie on count: cheaper kind wins
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(Locality, AffinityAbandonedPastLoadBarrier)
{
    auto views = cpuDpuViews();
    views[1].warmSandboxes = 4;
    views[1].outstanding = 16; // 2.0 load/core = kLoadBarrier
    LocalityAffinityPolicy p;
    // Falls back to load-aware: dpu2 is idle and cheapest.
    EXPECT_EQ(p.place(anyRequest(), PlacementView(views)), 2);
}

TEST(Locality, ColdStartFallsBackToLoadAware)
{
    LocalityAffinityPolicy p;
    EXPECT_EQ(p.place(anyRequest(), PlacementView(cpuDpuViews())), 1);
}

// ---------------------------------------------------------------------
// Differential check: the policies walk a price order the view carries
// (sorted once per function by the scheduler); a sort-based reference
// of each policy, kept here, must pick the same PU on random views.

/** Rows sorted by the price heuristic, by pointer. */
std::vector<const PuView *>
referencePriceOrder(const std::vector<PuView> &rows)
{
    std::vector<const PuView *> order;
    for (const PuView &v : rows)
        order.push_back(&v);
    std::sort(order.begin(), order.end(),
              [](const PuView *a, const PuView *b) {
                  if (a->price != b->price)
                      return a->price < b->price;
                  if (a->profileRank != b->profileRank)
                      return a->profileRank < b->profileRank;
                  return a->pu < b->pu;
              });
    return order;
}

int
referencePriceOrdered(const std::vector<PuView> &rows)
{
    for (const PuView *v : referencePriceOrder(rows))
        if (v->eligible())
            return v->pu;
    return -1;
}

int
referenceLoadAware(const std::vector<PuView> &rows)
{
    constexpr double spill = LoadAwarePolicy::kSpillThreshold;
    const auto order = referencePriceOrder(rows);
    std::size_t i = 0;
    while (i < order.size()) {
        const double price = order[i]->price;
        const std::uint32_t rank = order[i]->profileRank;
        const PuView *best = nullptr;
        for (; i < order.size() && order[i]->price == price &&
               order[i]->profileRank == rank;
             ++i) {
            const PuView *v = order[i];
            if (!v->eligible() || v->loadPerCore() >= spill)
                continue;
            if (best == nullptr || v->loadPerCore() < best->loadPerCore())
                best = v;
        }
        if (best != nullptr)
            return best->pu;
    }
    const PuView *best = nullptr;
    for (const PuView &v : rows) {
        if (!v.eligible())
            continue;
        if (best == nullptr || v.loadPerCore() < best->loadPerCore() ||
            (v.loadPerCore() == best->loadPerCore() && v.pu < best->pu))
            best = &v;
    }
    return best != nullptr ? best->pu : -1;
}

int
referenceLocality(const std::vector<PuView> &rows)
{
    constexpr double barrier = LocalityAffinityPolicy::kLoadBarrier;
    const auto order = referencePriceOrder(rows);
    const auto rankOf = [&order](const PuView *v) {
        return std::find(order.begin(), order.end(), v) - order.begin();
    };
    const PuView *warm = nullptr;
    for (const PuView &v : rows) {
        if (!v.eligible() || v.warmSandboxes == 0 ||
            v.loadPerCore() >= barrier)
            continue;
        if (warm == nullptr || v.warmSandboxes > warm->warmSandboxes ||
            (v.warmSandboxes == warm->warmSandboxes &&
             rankOf(&v) < rankOf(warm)))
            warm = &v;
    }
    if (warm != nullptr)
        return warm->pu;
    return referenceLoadAware(rows);
}

/** Random rows over distinct ascending PU ids, with price ties, rank
 * ties, skewed loads and every kind of ineligible row. */
std::vector<PuView>
randomRows(std::mt19937_64 &rng)
{
    const auto pick = [&rng](std::uint64_t n) {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(
            rng);
    };
    const double prices[] = {0.3, 0.6, 1.0, 1.0, 2.0};
    const int cores[] = {1, 8, 16, 96};
    const std::size_t n = pick(13); // 0..12: inline and spilled views
    std::vector<PuView> rows;
    int pu = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pu += 1 + int(pick(3));
        PuView v;
        v.pu = pu;
        v.price = prices[pick(5)];
        v.profileRank = std::uint32_t(pick(3));
        v.cores = cores[pick(4)];
        v.outstanding = int(pick(3)) == 0 ? 0 : int(pick(40));
        v.warmSandboxes = pick(4);
        v.needBytes = 1 << 20;
        v.freeBytes = pick(6) == 0 ? (1 << 19) : (1 << 30);
        v.down = pick(8) == 0;
        v.excluded = pick(8) == 0;
        rows.push_back(v);
    }
    return rows;
}

TEST(PlacementDifferential, PicksMatchSortBasedReference)
{
    std::mt19937_64 rng(20221028);
    for (int round = 0; round < 4000; ++round) {
        const std::vector<PuView> rows = randomRows(rng);
        const PlacementView view(rows);
        ASSERT_EQ(view.pus().size(), rows.size());

        PriceOrderedPolicy price;
        LoadAwarePolicy load;
        LocalityAffinityPolicy locality;
        EXPECT_EQ(price.place(anyRequest(), view),
                  referencePriceOrdered(rows))
            << "round " << round;
        EXPECT_EQ(load.place(anyRequest(), view),
                  referenceLoadAware(rows))
            << "round " << round;
        EXPECT_EQ(locality.place(anyRequest(), view),
                  referenceLocality(rows))
            << "round " << round;
        // A copied view decides identically.
        const PlacementView copy = view;
        EXPECT_EQ(load.place(anyRequest(), copy),
                  referenceLoadAware(rows));
    }
}

TEST(PlacementConfig, MakeBuildsTheSelectedPolicy)
{
    EXPECT_STREQ(PlacementConfig::priceOrdered().make()->name(),
                 "price-ordered");
    EXPECT_STREQ(PlacementConfig::loadAware().make()->name(),
                 "load-aware");
    EXPECT_STREQ(PlacementConfig::locality().make()->name(),
                 "locality");
    EXPECT_STREQ(core::toString(PlacementConfig::Kind::LoadAware),
                 "load-aware");
}

// ---------------------------------------------------------------------
// Regression: the pre-policy-layer scheduler never spilled off a
// saturated DPU (it only checked memory). Load-aware must move work
// to the host once DPU in-flight counts hit cores x threshold.
// ---------------------------------------------------------------------

struct SpillFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);

    std::unique_ptr<Molecule>
    makeRuntime(const PlacementConfig &placement)
    {
        MoleculeOptions options;
        options.placement = placement;
        auto rt = std::make_unique<Molecule>(*computer, options);
        rt->registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
        rt->start();
        return rt;
    }

    void
    saturateDpus(Molecule &rt)
    {
        for (int pu = 1; pu <= 2; ++pu)
            for (int i = 0; i < computer->pu(pu).desc().cores; ++i)
                rt.scheduler().noteDispatch(pu);
    }
};

TEST_F(SpillFixture, LoadAwareSpillsSaturatedDpusToHost)
{
    auto rt = makeRuntime(PlacementConfig::loadAware());
    const auto &fn = rt->registry().find("helloworld");
    EXPECT_NE(rt->scheduler().place(fn), 0) << "idle DPUs must win";

    saturateDpus(*rt);
    EXPECT_EQ(rt->scheduler().place(fn), 0)
        << "saturated DPUs must spill to the host";

    // Draining one DPU slot pulls placement back to the cheap kind.
    rt->scheduler().noteComplete(1);
    EXPECT_EQ(rt->scheduler().place(fn), 1);
}

TEST_F(SpillFixture, PriceOrderedDocumentsTheOldCeiling)
{
    // The compatibility default keeps the historical behavior: no
    // spill, however deep the DPU backlog (goldens depend on it).
    auto rt = makeRuntime(PlacementConfig::priceOrdered());
    saturateDpus(*rt);
    const auto &fn = rt->registry().find("helloworld");
    EXPECT_EQ(rt->scheduler().place(fn), 1);
}

TEST_F(SpillFixture, ConcurrentBurstLandsOnHostAndDpu)
{
    // End to end: 80 simultaneous invocations against 2x16 DPU cores
    // — the in-flight accounting fed by the invoke pipeline itself
    // must push the overflow onto the host.
    auto rt = makeRuntime(PlacementConfig::loadAware());
    int hostRuns = 0, dpuRuns = 0;
    auto one = [](Molecule *m, int *host, int *dpu) -> sim::Task<> {
        auto rec = co_await m->invoke("helloworld");
        EXPECT_TRUE(rec.ok());
        if (rec.ok())
            (rec.value().pu == 0 ? *host : *dpu) += 1;
    };
    for (int i = 0; i < 80; ++i)
        sim.spawn(one(rt.get(), &hostRuns, &dpuRuns));
    sim.run();
    EXPECT_EQ(hostRuns + dpuRuns, 80);
    EXPECT_GT(hostRuns, 0) << "overflow must spill to the host";
    EXPECT_GT(dpuRuns, 0) << "the cheap kind must still be used";
}

} // namespace
