/**
 * @file
 * Chain-fabric property: the nIPC fabric a chain wires is reclaimed
 * when the chain ends. After any mix of concurrent Alexa and
 * MapReduce chains drains, every shim and OS is back to its
 * post-prewarm state: no homed XPU-FIFO, capability object or group,
 * named FIFO, process or byte of memory outlives the chains that made
 * it. The mixes include roots placed on a DPU, so the gateway's entry
 * edge crosses PUs too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

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

/** Per-PU fabric counters, in Deployment::generalPus() order. */
struct FabricState
{
    std::vector<std::size_t> homedFifos, capObjects, capGroups, fifos,
        processes;
    std::vector<std::uint64_t> memory;
};

FabricState
snapshot(core::Deployment &dep)
{
    FabricState s;
    for (int pu : dep.generalPus()) {
        const xpu::XpuShim &shim = dep.shimOn(pu);
        const os::LocalOs &os = dep.osOn(pu);
        s.homedFifos.push_back(shim.homedFifoCount());
        s.capObjects.push_back(shim.caps().objectCount());
        s.capGroups.push_back(shim.caps().groupCount());
        s.fifos.push_back(os.fifoCount());
        s.processes.push_back(os.processCount());
        s.memory.push_back(os.physicalUsed());
    }
    return s;
}

void
expectSameFabric(const FabricState &got, const FabricState &want,
                 const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_EQ(got.homedFifos, want.homedFifos);
    EXPECT_EQ(got.capObjects, want.capObjects);
    EXPECT_EQ(got.capGroups, want.capGroups);
    EXPECT_EQ(got.fifos, want.fifos);
    EXPECT_EQ(got.processes, want.processes);
    EXPECT_EQ(got.memory, want.memory);
}

/** One chain of a mix: its shape and a PU per node. */
struct ChainRun
{
    ChainSpec spec;
    std::vector<int> placement;
};

sim::Task<>
runChain(Molecule *runtime, const ChainRun *run, int *failures)
{
    std::vector<int> placement = run->placement;
    auto r = co_await runtime->invokeChain(run->spec, std::move(placement));
    if (!r.ok())
        ++*failures;
}

/** Push every shim's batched reclamation out to its peers. */
sim::Task<>
flushAll(core::Deployment *dep)
{
    for (int pu : dep->generalPus())
        co_await dep->shimOn(pu).flushLazy();
}

/** Alexa as a DAG: front -> interact -> smarthome -> {door, light}. */
ChainSpec
alexaDag()
{
    ChainSpec spec;
    spec.name = "alexa-dag";
    const auto fns = Catalog::alexaChain();
    spec.nodes = {ChainNode{fns[0], -1}, ChainNode{fns[1], 0},
                  ChainNode{fns[2], 1}, ChainNode{fns[3], 2},
                  ChainNode{fns[4], 2}};
    return spec;
}

/** @p n chains of random shape and placement; the first one's root
 * sits on a DPU. */
std::vector<ChainRun>
randomMix(std::uint64_t seed, int n, const std::vector<int> &pus)
{
    std::mt19937_64 rng(seed);
    const ChainSpec shapes[] = {
        ChainSpec::linear("alexa", Catalog::alexaChain()),
        ChainSpec::linear("mapreduce", Catalog::mapReduceChain()),
        alexaDag()};
    std::vector<ChainRun> mix;
    for (int i = 0; i < n; ++i) {
        ChainRun run;
        run.spec = shapes[rng() % std::size(shapes)];
        for (std::size_t k = 0; k < run.spec.nodes.size(); ++k)
            run.placement.push_back(pus[rng() % pus.size()]);
        mix.push_back(std::move(run));
    }
    mix.front().placement.front() = pus.back();
    return mix;
}

TEST(Chains, FabricDrains)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        sim::Simulation sim(seed);
        auto computer =
            hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf2);
        Molecule runtime(*computer, MoleculeOptions{});
        for (const auto &fn : Catalog::alexaChain())
            runtime.registerCpuFunction(fn,
                                        {PuType::HostCpu, PuType::Dpu});
        for (const auto &fn : Catalog::mapReduceChain())
            runtime.registerCpuFunction(fn,
                                        {PuType::HostCpu, PuType::Dpu});
        runtime.start();
        core::Deployment &dep = runtime.deployment();
        ASSERT_EQ(dep.generalPus().size(), 3u);
        ASSERT_NE(dep.generalPus().back(), runtime.options().managerPu);

        const std::vector<ChainRun> mix =
            randomMix(seed, 2 + 3 * int(seed), dep.generalPus());
        int failures = 0;
        auto round = [&] {
            for (const ChainRun &run : mix)
                sim.spawn(runChain(&runtime, &run, &failures));
            sim.run();
            sim.spawn(flushAll(&dep));
            sim.run();
        };

        // The first rounds size the warm pools for this mix.
        round();
        round();
        const FabricState prewarmed = snapshot(dep);
        for (std::size_t i = 0; i < prewarmed.homedFifos.size(); ++i)
            EXPECT_EQ(prewarmed.homedFifos[i], 0u) << "PU index " << i;
        for (int r = 0; r < 3; ++r) {
            round();
            expectSameFabric(snapshot(dep), prewarmed,
                             "seed " + std::to_string(seed) + " round " +
                                 std::to_string(r));
        }
        EXPECT_EQ(failures, 0) << "seed " << seed;
    }
}

} // namespace
