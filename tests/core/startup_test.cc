/** @file Unit tests for the startup manager (keep-alive, GPU, hot sets). */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using namespace molecule::sim::literals;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

TEST(Startup, GlobalBudgetEnforcedAcrossFunctions)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 0,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.globalWarmCapacityPerPu = 3;
    Molecule runtime(*computer, options);
    for (const auto &fn :
         {"helloworld", "pyaes", "dd", "matmul", "linpack"})
        runtime.registerCpuFunction(fn, {PuType::HostCpu});
    runtime.start();

    std::size_t total = 0;
    for (const auto &fn :
         {"helloworld", "pyaes", "dd", "matmul", "linpack"}) {
        (void)runtime.runSync(runtime.invoke(fn, {.pu = 0}));
        total = 0;
        for (const auto &g :
             {"helloworld", "pyaes", "dd", "matmul", "linpack"})
            total += runtime.startup().warmCount(g, 0);
        EXPECT_LE(total, 3u);
    }
}

TEST(Startup, GlobalBudgetCountTracksPurges)
{
    // The per-PU warm count behind the global budget must follow
    // purges: a purged slot frees budget, so the next parks fit
    // without an eviction.
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 0,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.globalWarmCapacityPerPu = 3;
    Molecule runtime(*computer, options);
    const char *fns[] = {"helloworld", "pyaes", "dd", "matmul", "linpack"};
    for (const char *fn : fns)
        runtime.registerCpuFunction(fn, {PuType::HostCpu});
    runtime.start();
    core::StartupManager &startup = runtime.startup();
    auto warmOn0 = [&] {
        std::size_t total = 0;
        for (const char *fn : fns)
            total += startup.warmCount(fn, 0);
        return total;
    };

    for (const char *fn : {"helloworld", "pyaes", "dd"})
        ASSERT_TRUE(runtime.runSync(runtime.invoke(fn, {.pu = 0})).ok());
    EXPECT_EQ(warmOn0(), 3u);
    startup.purgeFunction("pyaes", 0);
    ASSERT_TRUE(runtime.runSync(runtime.invoke("matmul", {.pu = 0})).ok());
    EXPECT_EQ(startup.evictions(), 0);
    ASSERT_TRUE(runtime.runSync(runtime.invoke("linpack", {.pu = 0})).ok());
    EXPECT_EQ(startup.evictions(), 1);
    EXPECT_EQ(warmOn0(), 3u);

    startup.purgePu(0);
    EXPECT_EQ(warmOn0(), 0u);
    for (const char *fn : {"helloworld", "pyaes", "dd"})
        ASSERT_TRUE(runtime.runSync(runtime.invoke(fn, {.pu = 0})).ok());
    EXPECT_EQ(startup.evictions(), 1);
    EXPECT_EQ(warmOn0(), 3u);
}

TEST(Startup, GlobalEvictionBreaksTiesInNameOrder)
{
    // Three aliases of one function park with identical greedy-dual
    // priorities; the global budget of 2 evicts one of them. Ties go
    // to the earliest entry in function-*name* order ("alpha"), not
    // in registration order ("zeta" registered first): the pinned
    // digest fails if pools are scanned by id.
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 0,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.keepAlive = KeepAliveConfig::greedyDual();
    options.startup.globalWarmCapacityPerPu = 2;
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("helloworld", {PuType::HostCpu});
    core::FunctionDef alias = runtime.registry().find("helloworld");
    for (const char *name : {"zeta", "alpha", "mid"}) {
        alias.name = name;
        runtime.registry().add(alias);
    }
    runtime.start();
    for (const char *name : {"zeta", "alpha", "mid"})
        ASSERT_TRUE(runtime.runSync(runtime.invoke(name, {.pu = 0})).ok());

    EXPECT_EQ(runtime.startup().evictions(), 1);
    EXPECT_EQ(runtime.startup().warmCount("alpha", 0), 0u);
    EXPECT_EQ(runtime.startup().warmCount("zeta", 0), 1u);
    EXPECT_EQ(runtime.startup().warmCount("mid", 0), 1u);
    EXPECT_EQ(runtime.startup().evictionDigest(), 0x770465098657f2d2ULL);
}

TEST(Startup, GreedyDualKeepsHighestColdCostDensity)
{
    // FaasCache priority is freq x cold-cost / size: helloworld's
    // cold boot is almost as expensive as pyaes' (interpreter-bound)
    // at a fraction of the memory, so greedy-dual retains it even
    // when pyaes ran more recently; LRU keeps whatever ran last.
    auto helloworldWarm = [](const KeepAliveConfig &keepAlive) {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 0,
                                              hw::DpuGeneration::Bf1);
        MoleculeOptions options;
        options.startup.keepAlive = keepAlive;
        options.startup.globalWarmCapacityPerPu = 1;
        options.startup.useCfork = false; // bigger cost contrast
        Molecule runtime(*computer, options);
        runtime.registerCpuFunction("helloworld", {PuType::HostCpu});
        runtime.registerCpuFunction("pyaes", {PuType::HostCpu});
        runtime.start();
        for (int i = 0; i < 4; ++i) {
            (void)runtime.runSync(runtime.invoke("helloworld", {.pu = 0}));
            // pyaes is always the most recent.
            (void)runtime.runSync(runtime.invoke("pyaes", {.pu = 0}));
        }
        return runtime.startup().warmCount("helloworld", 0);
    };
    EXPECT_EQ(helloworldWarm(KeepAliveConfig::greedyDual()), 1u);
    EXPECT_EQ(helloworldWarm(KeepAliveConfig::lru()), 0u);
}

TEST(Startup, FpgaHotSetRecomposesOnMiss)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.registerFpgaFunction("fpga-aml");
    runtime.start();

    runtime.startup().setFpgaHotSet(0, {"fpga-gzip"});
    auto first =
        runtime.runSync(runtime.invoke("fpga-gzip", {.units = 1024})).value();
    EXPECT_TRUE(first.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 1);

    // A miss on fpga-aml recomposes: hot set + the missed function.
    auto second =
        runtime.runSync(runtime.invoke("fpga-aml", {.units = 6000})).value();
    EXPECT_TRUE(second.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 2);
    EXPECT_TRUE(runtime.deployment().runf(0).cached("fpga-gzip"));
    EXPECT_TRUE(runtime.deployment().runf(0).cached("fpga-aml"));
}

TEST(Startup, GpuPathColdAndWarm)
{
    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerGpuFunction("gnn-train-step", 4_ms, 2 << 20);
    runtime.start();

    auto cold = runtime.runSync(runtime.invoke("gnn-train-step")).value();
    EXPECT_TRUE(cold.coldStart);
    // Context creation + module load dominate the cold start.
    EXPECT_GT(cold.startup.toMilliseconds(), 200.0);
    EXPECT_GT(cold.execution.toMilliseconds(), 4.0);

    auto warm = runtime.runSync(runtime.invoke("gnn-train-step")).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 0.1);
    // MPS keeps many modules resident: a second function does not
    // re-create the context.
    runtime.registerGpuFunction("gnn-agg", 1_ms);
    auto other = runtime.runSync(runtime.invoke("gnn-agg")).value();
    EXPECT_TRUE(other.coldStart);
    EXPECT_LT(other.startup.toMilliseconds(), 50.0);
}

TEST(Startup, ShimHandlerThreadsRelieveBursts)
{
    // 8 concurrent xfifo_inits against the DPU shim: with one handler
    // thread they convoy; with four they overlap.
    auto burst = [](int threads) {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 1,
                                              hw::DpuGeneration::Bf1);
        os::LocalOs cpuOs{computer->pu(0)};
        os::LocalOs dpuOs{computer->pu(1)};
        xpu::XpuShimNetwork net{*computer};
        net.addShim(cpuOs, xpu::TransportKind::Fifo);
        auto *dpuShim = net.addShim(dpuOs, xpu::TransportKind::MpscPoll);
        dpuShim->setHandlerThreads(threads);

        os::Process *proc = nullptr;
        auto boot = [](os::LocalOs *o, os::Process **p) -> sim::Task<> {
            *p = co_await o->spawnProcess("p", 1 << 20);
        };
        sim.spawn(boot(&dpuOs, &proc));
        sim.run();
        xpu::XpuClient client(*dpuShim, *proc);

        const auto t0 = sim.now();
        auto one = [](xpu::XpuClient *c, int i) -> sim::Task<> {
            (void)co_await c->xfifoInit("b" + std::to_string(i));
        };
        for (int i = 0; i < 8; ++i)
            sim.spawn(one(&client, i));
        sim.run();
        return sim.now() - t0;
    };
    const auto single = burst(1);
    const auto multi = burst(4);
    EXPECT_LT(multi, single);
}

} // namespace
