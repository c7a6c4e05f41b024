/** @file Tests for runc: cfork ablation, OCI lifecycle, memory. */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hw/calibration.hh"
#include "hw/computer.hh"
#include "sandbox/runc.hh"

namespace {

namespace calib = molecule::hw::calib;
using molecule::hw::buildDesktop;
using molecule::hw::Computer;
using molecule::os::LocalOs;
using molecule::sandbox::FunctionImage;
using molecule::sandbox::Instance;
using molecule::sandbox::Language;
using molecule::sandbox::RuncRuntime;
using molecule::sandbox::SandboxState;
using molecule::sandbox::StartupPath;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

/** The Fig 11 benchmark function: no extra imports, tiny code. */
FunctionImage
fig11Function()
{
    FunctionImage img;
    img.funcId = "pyfn";
    img.language = Language::Python;
    img.mem.runtimeShared = std::uint64_t(4.5 * (1 << 20));
    img.mem.privateBytes = 8 << 20;
    img.mem.templateExtra = std::uint64_t(3.5 * (1 << 20));
    img.importCost = SimTime(0);
    img.funcLoadCost = SimTime(0);
    return img;
}

Task<>
createInst(RuncRuntime *r, Instance *inst, bool *out)
{
    *out = co_await r->create(*inst, {});
}

Task<>
startInst(RuncRuntime *r, Instance *inst, bool *out)
{
    *out = co_await r->start(*inst);
}

Task<>
destroyInst(RuncRuntime *r, Instance *inst)
{
    co_await r->destroy(*inst);
}

struct RuncFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer = buildDesktop(sim);
    LocalOs os{computer->pu(0)};
    RuncRuntime runc{os};
    FunctionImage img = fig11Function();

    /** The lifecycle by reference, one step per call, run to the end.
     * create() adds the row of @p id first. */
    bool
    create(const std::string &id, const FunctionImage &fi)
    {
        Instance *inst = runc.addInstance(id, fi);
        bool ok = false;
        if (inst != nullptr)
            sim.spawn(createInst(&runc, inst, &ok));
        sim.run();
        return ok;
    }

    bool
    start(const std::string &id)
    {
        bool ok = false;
        sim.spawn(startInst(&runc, runc.find(id), &ok));
        sim.run();
        return ok;
    }

    void
    destroy(const std::string &id)
    {
        sim.spawn(destroyInst(&runc, runc.find(id)));
        sim.run();
    }

    SandboxState
    state(const std::string &id)
    {
        const Instance *inst = runc.find(id);
        return inst ? inst->state : SandboxState::Unknown;
    }

    SimTime
    timeCreate(StartupPath path, const std::string &id)
    {
        runc.setStartupPath(path);
        const SimTime t0 = sim.now();
        EXPECT_TRUE(create(id, img));
        return sim.now() - t0;
    }

    void
    prepare(int pooledContainers = 4)
    {
        auto prep = [](RuncRuntime *r, const FunctionImage *fi,
                       int pool) -> Task<> {
            bool ok = co_await r->prepareTemplate(*fi);
            EXPECT_TRUE(ok);
            if (pool > 0)
                co_await r->prewarmFunctionContainers(pool);
        };
        sim.spawn(prep(&runc, &img, pooledContainers));
        sim.run();
    }
};

TEST_F(RuncFixture, Fig11aAblationLaddersDown)
{
    prepare();
    const auto baseline = timeCreate(StartupPath::ColdBoot, "s0");
    const auto naive = timeCreate(StartupPath::CforkNaive, "s1");
    const auto func = timeCreate(StartupPath::CforkFuncContainer, "s2");
    const auto opt = timeCreate(StartupPath::CforkCpusetOpt, "s3");

    // Fig 11-a: 85.55 -> 47.25 -> 30.05 -> 8.40 ms (desktop).
    EXPECT_NEAR(baseline.toMilliseconds(), 85.55, 5.0);
    EXPECT_NEAR(naive.toMilliseconds(), 47.25, 3.0);
    EXPECT_NEAR(func.toMilliseconds(), 30.05, 2.0);
    EXPECT_NEAR(opt.toMilliseconds(), 8.40, 1.0);
    // More than 10x faster than the baseline with all optimizations.
    EXPECT_GT(baseline.toMilliseconds() / opt.toMilliseconds(), 9.0);
}

TEST_F(RuncFixture, ColdBootWithoutTemplateStillWorks)
{
    const auto t = timeCreate(StartupPath::CforkCpusetOpt, "s0");
    // No template prepared: create silently falls back to cold boot.
    EXPECT_GT(t.toMilliseconds(), 50.0);
    EXPECT_FALSE(runc.find("s0")->forked);
}

TEST_F(RuncFixture, FailedColdBootLeavesNoContainer)
{
    // More memory than the PU has: the cold boot starts a container
    // and a process, then fails to map the instance's memory.
    img.mem.runtimeShared = computer->pu(0).memoryCapacity() + 1;
    runc.setStartupPath(StartupPath::ColdBoot);
    const std::size_t containers = os.containers().containerCount();
    const std::size_t procs = os.processCount();
    const std::uint64_t memory = os.physicalUsed();
    EXPECT_FALSE(create("too-big", img));
    EXPECT_EQ(os.containers().containerCount(), containers);
    EXPECT_EQ(os.containers().find("too-big"), nullptr);
    EXPECT_EQ(os.processCount(), procs);
    EXPECT_EQ(os.physicalUsed(), memory);
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(state("too-big"), SandboxState::Unknown);
}

TEST_F(RuncFixture, DestroyedRowsAreReusedDeadOnesAreNot)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "killed");
    timeCreate(StartupPath::CforkCpusetOpt, "spare");
    const Instance *killed = runc.find("killed");
    const Instance *spare = runc.find("spare");
    destroy("spare");
    // An OOM-killed instance's row is dropped, not kept for reuse:
    // in-flight invokes may have held it.
    EXPECT_EQ(runc.oomKill("pyfn"), 1);
    destroy("killed");
    EXPECT_EQ(runc.instanceCount(), 0u);

    timeCreate(StartupPath::CforkCpusetOpt, "next");
    const Instance *next = runc.find("next");
    EXPECT_EQ(next, spare);
    EXPECT_NE(next, killed);
    EXPECT_EQ(next->id, "next");
    EXPECT_FALSE(next->dead);
    EXPECT_TRUE(next->forked);
    EXPECT_EQ(next->funcId, "pyfn");
    EXPECT_EQ(next->state, SandboxState::Created);
}

TEST_F(RuncFixture, OomKillDuringTeardownSparesTheReusedProcess)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    auto spawnIt = [](LocalOs *o, molecule::os::Process **out) -> Task<> {
        *out = co_await o->spawnProcess("other", 0);
    };
    // The instance's process exits at once; its container delete
    // takes longer than a spawn, which reuses the exited record.
    molecule::os::Process *other = nullptr;
    sim.spawn(destroyInst(&runc, runc.find("a")));
    sim.spawn(spawnIt(&os, &other));
    sim.runUntil(sim.now() + calib::kSpawnProcessCost);
    ASSERT_NE(other, nullptr);
    ASSERT_EQ(runc.instanceCount(), 1u);
    // The dying instance no longer names a process to kill.
    EXPECT_EQ(runc.oomKill("pyfn"), 1);
    EXPECT_TRUE(other->alive());
    EXPECT_EQ(os.findProcess(other->pid()), other);
    sim.run();
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_TRUE(other->alive());
}

TEST_F(RuncFixture, CrashRetiresContainerRowsRestartRefillsThem)
{
    prepare();
    const std::size_t baseline = os.containers().containerCount();
    ASSERT_EQ(baseline, 5u); // the template's and 4 pooled
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    // A third cold start is caught in its cpuset attach by the crash.
    bool done = false;
    auto createIt = [](RuncRuntime *r, Instance *inst,
                       bool *out) -> Task<> {
        (void)co_await r->create(*inst, {});
        *out = true;
    };
    Instance *b = runc.addInstance("b", img);
    sim.spawn(createIt(&runc, b, &done));
    while (b->container == nullptr)
        ASSERT_TRUE(sim.step());
    runc.crashPurge();
    os.crashReset();
    EXPECT_EQ(os.containers().containerCount(), 0u);
    sim.run(); // the attach ends on a retired record
    EXPECT_TRUE(done);
    EXPECT_EQ(os.containers().containerCount(), 0u);

    // Restart: the template and the pool come back, nothing else.
    prepare();
    EXPECT_EQ(os.containers().containerCount(), baseline);
}

TEST_F(RuncFixture, OomKillRetiresTheContainerRow)
{
    prepare(0);
    const std::size_t baseline = os.containers().containerCount();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    ASSERT_EQ(os.containers().containerCount(), baseline + 1);
    EXPECT_EQ(runc.oomKill("pyfn"), 1);
    EXPECT_EQ(os.containers().containerCount(), baseline);
    destroy("a");
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(os.containers().containerCount(), baseline);
}

TEST_F(RuncFixture, OomKillDuringContainerDeleteFreesTheRowOnce)
{
    prepare(0);
    const std::size_t baseline = os.containers().containerCount();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    sim.spawn(destroyInst(&runc, runc.find("a")));
    sim.runUntil(sim.now() + calib::kSpawnProcessCost);
    ASSERT_EQ(runc.instanceCount(), 1u);
    // The delete still holds the record the kill retires.
    EXPECT_EQ(runc.oomKill("pyfn"), 1);
    EXPECT_EQ(os.containers().containerCount(), baseline);
    sim.run();
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(os.containers().containerCount(), baseline);
}

TEST_F(RuncFixture, OciLifecycle)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "sb");
    EXPECT_EQ(state("sb"), SandboxState::Created);
    EXPECT_TRUE(start("sb"));
    EXPECT_EQ(state("sb"), SandboxState::Running);
    // A second start finds the sandbox no longer Created.
    EXPECT_FALSE(start("sb"));
    destroy("sb");
    EXPECT_EQ(state("sb"), SandboxState::Unknown);
    EXPECT_EQ(runc.instanceCount(), 0u);
}

TEST_F(RuncFixture, DuplicateSandboxIdRejected)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "dup");
    EXPECT_EQ(runc.addInstance("dup", img), nullptr);
    EXPECT_EQ(runc.instanceCount(), 1u);
}

TEST_F(RuncFixture, RecreatedIdsStayExactAmongLiveInstances)
{
    prepare();
    FunctionImage other = img;
    other.funcId = "otherfn";
    const auto make = [&](const std::string &id, const FunctionImage &fi) {
        ASSERT_TRUE(create(id, fi)) << id;
        ASSERT_TRUE(start(id)) << id;
    };
    // Live neighbours, short and long (heap-allocated) ids.
    make("a", img);
    make("pyfn-neighbour-with-a-long-id", img);
    make("o1", other);
    make("otherfn-neighbour-with-a-long-id", other);
    ASSERT_EQ(runc.instanceCount(), 4u);

    for (int i = 0; i < 100; ++i) {
        const std::string id =
            i % 2 == 0 ? "cycle" : "cycle-sandbox-with-a-long-id";
        make(id, i % 3 == 0 ? other : img);
        ASSERT_EQ(runc.instanceCount(), 5u);
        ASSERT_NE(runc.find(id), nullptr);
        EXPECT_EQ(runc.find(id)->id, id);
        EXPECT_EQ(state(id), SandboxState::Running);
        destroy(id);
        ASSERT_EQ(runc.instanceCount(), 4u);
        EXPECT_EQ(runc.find(id), nullptr);
    }
    for (const char *id : {"a", "pyfn-neighbour-with-a-long-id", "o1",
                           "otherfn-neighbour-with-a-long-id"}) {
        ASSERT_NE(runc.find(id), nullptr) << id;
        EXPECT_EQ(runc.find(id)->id, id);
        EXPECT_EQ(state(id), SandboxState::Running);
    }

    // The OOM kill takes exactly one function's instances.
    EXPECT_EQ(runc.oomKill("otherfn"), 2);
    EXPECT_TRUE(runc.find("o1")->dead);
    EXPECT_TRUE(runc.find("otherfn-neighbour-with-a-long-id")->dead);
    EXPECT_FALSE(runc.find("a")->dead);
    EXPECT_FALSE(runc.find("pyfn-neighbour-with-a-long-id")->dead);
    EXPECT_EQ(runc.oomKill("otherfn"), 0);
    EXPECT_EQ(runc.instanceCount(), 4u);
}

TEST_F(RuncFixture, ForkedInstanceSharesMemory)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    timeCreate(StartupPath::CforkCpusetOpt, "b");
    // Forked instances: RSS = shared runtime + private heap.
    const auto rss = runc.instanceRss("a");
    EXPECT_EQ(rss, img.mem.runtimeShared + img.mem.privateBytes);
    // PSS < RSS because the runtime region is shared with the
    // template and the sibling.
    EXPECT_LT(runc.instancePss("a"), double(rss));

    // A cold instance shares nothing.
    timeCreate(StartupPath::ColdBoot, "c");
    EXPECT_DOUBLE_EQ(runc.instancePss("c"),
                     double(runc.instanceRss("c")));
}

TEST_F(RuncFixture, PssDropsWithConcurrency)
{
    // Fig 11-c: average PSS falls as more instances share the runtime.
    prepare(20);
    timeCreate(StartupPath::CforkCpusetOpt, "i0");
    const double pss1 = runc.instancePss("i0");
    for (int i = 1; i < 16; ++i)
        timeCreate(StartupPath::CforkCpusetOpt,
                   "i" + std::to_string(i));
    const double pss16 = runc.instancePss("i0");
    // The drop is bounded by the shared fraction of the footprint:
    // private 8 MB + 4.5/2 MB -> private 8 MB + 4.5/17 MB.
    EXPECT_LT(pss16, pss1 * 0.85);
    const double sharedMb = double(img.mem.runtimeShared) / (1 << 20);
    EXPECT_NEAR((pss1 - pss16) / (1 << 20),
                sharedMb / 2 - sharedMb / 17, 0.05);
}

TEST_F(RuncFixture, FirstInvokePaysCowFaults)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "sb");
    ASSERT_TRUE(start("sb"));

    auto invokeIt = [](RuncRuntime *r, SimTime exec, SimTime *out,
                       Simulation *s) -> Task<> {
        const SimTime t0 = s->now();
        molecule::core::Status st = co_await r->invoke("sb", exec);
        EXPECT_TRUE(st.ok()) << st.toString();
        *out = s->now() - t0;
    };
    SimTime first, second;
    sim.spawn(invokeIt(&runc, 5_ms, &first, &sim));
    sim.run();
    sim.spawn(invokeIt(&runc, 5_ms, &second, &sim));
    sim.run();
    // First invocation: COW faults on ~10% of the shared runtime.
    EXPECT_GT(first, second);
    // Second invocation: pure execution (scaled by desktop factor).
    EXPECT_NEAR(second.toMilliseconds(), 5.0 * 0.75, 0.2);
    // The penalty stays small (sub-millisecond for this footprint).
    EXPECT_LT((first - second).toMilliseconds(), 1.0);
}

} // namespace
