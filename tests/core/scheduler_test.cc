/** @file Unit tests for placement (profiles, prices, chain affinity). */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::FunctionDef;
using core::Molecule;
using core::MoleculeOptions;
using core::Profile;
using hw::PuType;
using workloads::Catalog;

struct SchedFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
    Molecule runtime{*computer, MoleculeOptions{}};

    void
    SetUp() override
    {
        runtime.registerCpuFunction("helloworld",
                                    {PuType::HostCpu, PuType::Dpu});
        runtime.registerCpuFunction("image-resize", {PuType::HostCpu});
        for (const auto &fn : Catalog::alexaChain())
            runtime.registerCpuFunction(fn, {PuType::Dpu});
        runtime.start();
    }
};

TEST_F(SchedFixture, PrefersCheapestAllowedKind)
{
    const auto &both = runtime.registry().find("helloworld");
    const int pu = runtime.scheduler().place(both);
    EXPECT_EQ(computer->pu(pu).type(), PuType::Dpu);

    const auto &cpuOnly = runtime.registry().find("image-resize");
    EXPECT_EQ(runtime.scheduler().place(cpuOnly), 0);
}

TEST_F(SchedFixture, FallsBackWhenCheapKindIsFull)
{
    // Exhaust both DPUs' memory: the scheduler must fall back to CPU.
    computer->pu(1).tryAllocate(computer->pu(1).memoryFree());
    computer->pu(2).tryAllocate(computer->pu(2).memoryFree());
    const auto &both = runtime.registry().find("helloworld");
    EXPECT_EQ(runtime.scheduler().place(both), 0);
}

TEST_F(SchedFixture, ReturnsMinusOneWhenNothingFits)
{
    for (int pu = 0; pu < computer->puCount(); ++pu)
        computer->pu(pu).tryAllocate(computer->pu(pu).memoryFree());
    const auto &both = runtime.registry().find("helloworld");
    EXPECT_EQ(runtime.scheduler().place(both), -1);
}

TEST_F(SchedFixture, ChainAffinityPicksOnePu)
{
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    auto placement = runtime.scheduler().placeChain(spec);
    ASSERT_EQ(placement.size(), 5u);
    // All Alexa functions only allow DPUs: a single DPU hosts all.
    for (int pu : placement) {
        EXPECT_EQ(pu, placement[0]);
        EXPECT_EQ(computer->pu(pu).type(), PuType::Dpu);
    }
}

TEST_F(SchedFixture, MixedChainFallsBackPerNode)
{
    // image-resize (CPU-only) + alexa-front (DPU-only): no single PU
    // fits, so per-node placement applies.
    auto spec = ChainSpec::linear(
        "mixed", {"image-resize", "alexa-front"});
    auto placement = runtime.scheduler().placeChain(spec);
    ASSERT_EQ(placement.size(), 2u);
    EXPECT_EQ(computer->pu(placement[0]).type(), PuType::HostCpu);
    EXPECT_EQ(computer->pu(placement[1]).type(), PuType::Dpu);
}

TEST_F(SchedFixture, ReRegistrationKeepsIdAndRefreshesView)
{
    const FunctionDef &def = runtime.registry().find("image-resize");
    const core::FnId id = def.id;
    ASSERT_EQ(runtime.scheduler().view(def).pus().size(), 1u);

    // Re-adding the name replaces the definition in place, under the
    // same id: the scheduler's cached rows must follow the new
    // profiles (DPUs first, by price) instead of the old CPU-only set.
    FunctionDef wider = def;
    wider.profiles = {Profile{PuType::Dpu, 0.5},
                      Profile{PuType::HostCpu, 1.0}};
    runtime.registry().add(wider);
    const FunctionDef &now = runtime.registry().find("image-resize");
    EXPECT_EQ(now.id, id);
    EXPECT_EQ(&now, &def);
    const core::PlacementView view = runtime.scheduler().view(now);
    const auto pus = view.pus();
    ASSERT_EQ(pus.size(), 3u);
    EXPECT_EQ(pus[1].kind, PuType::Dpu);
    EXPECT_EQ(pus[1].profileRank, 0u);
    EXPECT_DOUBLE_EQ(pus[1].price, 0.5);
    EXPECT_EQ(computer->pu(runtime.scheduler().place(now)).type(),
              PuType::Dpu);
}

TEST(FunctionDefTest, AllowsChecksProfiles)
{
    FunctionDef def;
    def.name = "x";
    def.profiles.push_back(Profile{PuType::Dpu, 0.5});
    EXPECT_TRUE(def.allows(PuType::Dpu));
    EXPECT_FALSE(def.allows(PuType::HostCpu));
    EXPECT_FALSE(def.allows(PuType::FpgaHost));
}

TEST(FunctionRegistryTest, AddFindHas)
{
    core::FunctionRegistry reg;
    FunctionDef def;
    def.name = "fn";
    reg.add(def);
    EXPECT_TRUE(reg.has("fn"));
    EXPECT_FALSE(reg.has("nope"));
    EXPECT_EQ(reg.find("fn").name, "fn");
    EXPECT_EQ(reg.size(), 1u);
    // Re-registering replaces.
    def.profiles.push_back(Profile{PuType::Dpu, 0.5});
    reg.add(def);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.find("fn").profiles.size(), 1u);
}

TEST(FunctionRegistryTest, InternsDenseIdsAndIteratesByName)
{
    core::FunctionRegistry reg;
    for (const char *name : {"zeta", "alpha", "mid"}) {
        FunctionDef def;
        def.name = name;
        reg.add(def);
    }
    EXPECT_EQ(reg.find("zeta").id, 0u);
    EXPECT_EQ(reg.find("alpha").id, 1u);
    EXPECT_EQ(reg.find("mid").id, 2u);
    EXPECT_EQ(&reg.at(1), &reg.find("alpha"));
    EXPECT_EQ(reg.idsByName(), (std::vector<core::FnId>{1, 2, 0}));

    // Re-adding keeps the id (and bumps the revision); a definition
    // that arrives with a foreign id gets the registry's.
    const std::uint32_t rev = reg.revision(0);
    FunctionDef again;
    again.name = "zeta";
    again.id = 7;
    reg.add(again);
    EXPECT_EQ(reg.find("zeta").id, 0u);
    EXPECT_EQ(reg.revision(0), rev + 1);
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.findPtr("nope"), nullptr);
}

} // namespace
