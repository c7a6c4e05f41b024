/** @file Unit tests for the DAG engine (fan-out, prewarm, entry edge). */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainNode;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

struct DagFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 1, hw::DpuGeneration::Bf2);
    Molecule runtime{*computer, MoleculeOptions{}};

    void
    SetUp() override
    {
        for (const auto &fn : Catalog::alexaChain())
            runtime.registerCpuFunction(fn,
                                        {PuType::HostCpu, PuType::Dpu});
        runtime.start();
    }

    /** front -> interact -> smarthome -> {door, light}. */
    static ChainSpec
    alexaDag()
    {
        ChainSpec spec;
        spec.name = "alexa";
        auto fns = Catalog::alexaChain();
        spec.nodes = {ChainNode{fns[0], -1}, ChainNode{fns[1], 0},
                      ChainNode{fns[2], 1}, ChainNode{fns[3], 2},
                      ChainNode{fns[4], 2}};
        return spec;
    }
};

TEST_F(DagFixture, LinearFactoryBuildsParents)
{
    auto spec = ChainSpec::linear("x", {"a", "b", "c"});
    ASSERT_EQ(spec.nodes.size(), 3u);
    EXPECT_EQ(spec.nodes[0].parent, -1);
    EXPECT_EQ(spec.nodes[1].parent, 0);
    EXPECT_EQ(spec.nodes[2].parent, 1);
    EXPECT_EQ(spec.edgeCount(), 2u);
}

TEST_F(DagFixture, ChainTeardownExitsTheEntryProcess)
{
    // Each chain spawns an entry-edge process on the manager PU; its
    // teardown must exit it. After one chain has parked its warm
    // instances, repeated chains leave the process count unchanged.
    os::LocalOs &manager = runtime.deployment().osOn(0);
    const ChainSpec spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    const std::vector<int> spread = {0, 1, 0, 1, 0};
    ASSERT_TRUE(runtime.invokeChainSync(spec, spread).ok());
    const std::size_t before = manager.processCount();
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(runtime.invokeChainSync(spec, spread).ok());
    EXPECT_EQ(manager.processCount(), before);
}

TEST_F(DagFixture, FanOutRunsLeavesConcurrently)
{
    // DAG e2e: the two leaves overlap, so the total is one leaf
    // shorter than the linear chain of the same five functions.
    auto dag = runtime.invokeChainSync(alexaDag(),
                                       std::vector<int>(5, 0)).value();
    auto linear = runtime.invokeChainSync(
        ChainSpec::linear("alexa-linear", Catalog::alexaChain()),
        std::vector<int>(5, 0)).value();
    const double execMs =
        runtime.catalog().cpu("alexa-front").execCost.toMilliseconds();
    EXPECT_NEAR(linear.endToEnd.toMilliseconds() -
                    dag.endToEnd.toMilliseconds(),
                execMs, 0.6);
}

TEST_F(DagFixture, PrewarmExcludesAcquisition)
{
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> onCpu(5, 0);
    auto prewarmed = runtime.invokeChainSync(spec, onCpu, true).value();
    // Not prewarmed: cold startup of five instances is inside e2e.
    sim::Simulation sim2;
    auto computer2 = hw::buildCpuDpuServer(sim2,
                                           1, hw::DpuGeneration::Bf2);
    Molecule cold(*computer2, MoleculeOptions{});
    for (const auto &fn : Catalog::alexaChain())
        cold.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    cold.start();
    auto coldRun = cold.invokeChainSync(spec, onCpu, false).value();
    EXPECT_GT(coldRun.endToEnd,
              prewarmed.endToEnd + sim::SimTime::fromMilliseconds(20));
}

TEST_F(DagFixture, EntryEdgeIsCharged)
{
    // A one-node "chain" still pays the gateway -> instance edge.
    auto spec = ChainSpec::linear("single", {"alexa-front"});
    std::vector<int> placement{0};
    auto rec = runtime.invokeChainSync(spec, placement).value();
    EXPECT_EQ(rec.edgeLatencies.size(), 0u);
    const double execMs =
        runtime.catalog().cpu("alexa-front").execCost.toMilliseconds();
    EXPECT_GT(rec.endToEnd.toMilliseconds(), execMs + 0.1);
}

TEST_F(DagFixture, RepeatedRunsReuseWarmInstances)
{
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> onCpu(5, 0);
    (void)runtime.invokeChainSync(spec, onCpu);
    const auto coldStartsAfterFirst = runtime.startup().coldStarts();
    (void)runtime.invokeChainSync(spec, onCpu);
    EXPECT_EQ(runtime.startup().coldStarts(), coldStartsAfterFirst);
}

TEST_F(DagFixture, InvocationRecordsCarryPlacement)
{
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime.invokeChainSync(spec, cross).value();
    ASSERT_EQ(rec.invocations.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rec.invocations[i].pu, cross[i]);
        EXPECT_EQ(rec.invocations[i].function,
                  Catalog::alexaChain()[i]);
    }
}

} // namespace
