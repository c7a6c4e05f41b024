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
using molecule::sandbox::CreateRequest;
using molecule::sandbox::FunctionImage;
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

struct RuncFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer = buildDesktop(sim);
    LocalOs os{computer->pu(0)};
    RuncRuntime runc{os};
    FunctionImage img = fig11Function();

    SimTime
    timeCreate(StartupPath path, const std::string &id)
    {
        runc.setStartupPath(path);
        bool ok = false;
        const SimTime t0 = sim.now();
        auto doIt = [](RuncRuntime *r, CreateRequest req,
                       bool *out) -> Task<> {
            *out = co_await r->create(req);
        };
        CreateRequest req{id, &img};
        sim.spawn(doIt(&runc, req, &ok));
        sim.run();
        EXPECT_TRUE(ok);
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
    bool ok = true;
    auto doIt = [](RuncRuntime *r, CreateRequest req, bool *out) -> Task<> {
        *out = co_await r->create(req);
    };
    CreateRequest req{"too-big", &img};
    sim.spawn(doIt(&runc, req, &ok));
    sim.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(os.containers().containerCount(), containers);
    EXPECT_EQ(os.containers().find("too-big"), nullptr);
    EXPECT_EQ(os.processCount(), procs);
    EXPECT_EQ(os.physicalUsed(), memory);
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(runc.state("too-big"), SandboxState::Unknown);
}

TEST_F(RuncFixture, DestroyedRowsAreReusedDeadOnesAreNot)
{
    prepare();
    auto destroyIt = [](RuncRuntime *r, std::string id) -> Task<> {
        co_await r->destroy(id);
    };
    timeCreate(StartupPath::CforkCpusetOpt, "killed");
    timeCreate(StartupPath::CforkCpusetOpt, "spare");
    const molecule::sandbox::Instance *killed = runc.find("killed");
    const molecule::sandbox::Instance *spare = runc.find("spare");
    sim.spawn(destroyIt(&runc, "spare"));
    sim.run();
    // An OOM-killed instance's row is dropped, not kept for reuse:
    // in-flight invokes may have held it.
    EXPECT_EQ(runc.oomKill("pyfn"), 1);
    sim.spawn(destroyIt(&runc, "killed"));
    sim.run();
    EXPECT_EQ(runc.instanceCount(), 0u);

    timeCreate(StartupPath::CforkCpusetOpt, "next");
    const molecule::sandbox::Instance *next = runc.find("next");
    EXPECT_EQ(next, spare);
    EXPECT_NE(next, killed);
    EXPECT_EQ(next->id, "next");
    EXPECT_FALSE(next->dead);
    EXPECT_TRUE(next->forked);
    EXPECT_EQ(next->funcId, "pyfn");
    EXPECT_EQ(runc.state("next"), SandboxState::Created);
}

TEST_F(RuncFixture, OomKillDuringTeardownSparesTheReusedProcess)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    auto destroyIt = [](RuncRuntime *r) -> Task<> {
        co_await r->destroy("a");
    };
    auto spawnIt = [](LocalOs *o, molecule::os::Process **out) -> Task<> {
        *out = co_await o->spawnProcess("other", 0);
    };
    // The instance's process exits at once; its container delete
    // takes longer than a spawn, which reuses the exited record.
    molecule::os::Process *other = nullptr;
    sim.spawn(destroyIt(&runc));
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
    auto createIt = [](RuncRuntime *r, const FunctionImage *fi,
                       bool *out) -> Task<> {
        CreateRequest req{"b", fi};
        (void)co_await r->create(req);
        *out = true;
    };
    sim.spawn(createIt(&runc, &img, &done));
    while (runc.find("b") == nullptr ||
           runc.find("b")->container == nullptr)
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
    auto destroyIt = [](RuncRuntime *r) -> Task<> {
        co_await r->destroy("a");
    };
    sim.spawn(destroyIt(&runc));
    sim.run();
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(os.containers().containerCount(), baseline);
}

TEST_F(RuncFixture, OomKillDuringContainerDeleteFreesTheRowOnce)
{
    prepare(0);
    const std::size_t baseline = os.containers().containerCount();
    timeCreate(StartupPath::CforkCpusetOpt, "a");
    auto destroyIt = [](RuncRuntime *r) -> Task<> {
        co_await r->destroy("a");
    };
    sim.spawn(destroyIt(&runc));
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
    EXPECT_EQ(runc.state("sb"), SandboxState::Created);

    auto startIt = [](RuncRuntime *r, bool *out) -> Task<> {
        *out = co_await r->start("sb");
    };
    bool ok = false;
    sim.spawn(startIt(&runc, &ok));
    sim.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(runc.state("sb"), SandboxState::Running);

    auto killIt = [](RuncRuntime *r) -> Task<> {
        co_await r->kill("sb", 9);
    };
    sim.spawn(killIt(&runc));
    sim.run();
    EXPECT_EQ(runc.state("sb"), SandboxState::Stopped);

    auto destroyIt = [](RuncRuntime *r) -> Task<> {
        co_await r->destroy("sb");
    };
    sim.spawn(destroyIt(&runc));
    sim.run();
    EXPECT_EQ(runc.state("sb"), SandboxState::Unknown);
    EXPECT_EQ(runc.instanceCount(), 0u);
}

TEST_F(RuncFixture, DuplicateSandboxIdRejected)
{
    prepare();
    timeCreate(StartupPath::CforkCpusetOpt, "dup");
    bool ok = true;
    auto doIt = [](RuncRuntime *r, CreateRequest req, bool *out) -> Task<> {
        *out = co_await r->create(req);
    };
    CreateRequest req{"dup", &img};
    sim.spawn(doIt(&runc, req, &ok));
    sim.run();
    EXPECT_FALSE(ok);
}

TEST_F(RuncFixture, RecreatedIdsStayExactAmongLiveInstances)
{
    prepare();
    FunctionImage other = img;
    other.funcId = "otherfn";
    auto create = [](RuncRuntime *r, CreateRequest req,
                     bool *out) -> Task<> {
        *out = co_await r->create(req);
        if (*out)
            *out = co_await r->start(req.sandboxId);
    };
    auto destroy = [](RuncRuntime *r, std::string id) -> Task<> {
        co_await r->destroy(id);
    };
    const auto make = [&](const std::string &id, const FunctionImage *fi) {
        bool ok = false;
        sim.spawn(create(&runc, CreateRequest{id, fi}, &ok));
        sim.run();
        ASSERT_TRUE(ok) << id;
    };
    // Live neighbours, short and long (heap-allocated) ids.
    make("a", &img);
    make("pyfn-neighbour-with-a-long-id", &img);
    make("o1", &other);
    make("otherfn-neighbour-with-a-long-id", &other);
    ASSERT_EQ(runc.instanceCount(), 4u);

    for (int i = 0; i < 100; ++i) {
        const std::string id =
            i % 2 == 0 ? "cycle" : "cycle-sandbox-with-a-long-id";
        make(id, i % 3 == 0 ? &other : &img);
        ASSERT_EQ(runc.instanceCount(), 5u);
        ASSERT_NE(runc.find(id), nullptr);
        EXPECT_EQ(runc.find(id)->id, id);
        EXPECT_EQ(runc.state(id), SandboxState::Running);
        sim.spawn(destroy(&runc, id));
        sim.run();
        ASSERT_EQ(runc.instanceCount(), 4u);
        EXPECT_EQ(runc.find(id), nullptr);
        EXPECT_EQ(runc.state(id), SandboxState::Unknown);
    }
    for (const char *id : {"a", "pyfn-neighbour-with-a-long-id", "o1",
                           "otherfn-neighbour-with-a-long-id"}) {
        ASSERT_NE(runc.find(id), nullptr) << id;
        EXPECT_EQ(runc.find(id)->id, id);
        EXPECT_EQ(runc.state(id), SandboxState::Running);
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
    auto startIt = [](RuncRuntime *r) -> Task<> {
        co_await r->start("sb");
    };
    sim.spawn(startIt(&runc));
    sim.run();

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

TEST_F(RuncFixture, VectorOpsDegenerateToLoops)
{
    prepare();
    runc.setStartupPath(StartupPath::CforkCpusetOpt);
    std::vector<CreateRequest> reqs;
    for (int i = 0; i < 3; ++i)
        reqs.push_back(CreateRequest{"v" + std::to_string(i), &img});
    int created = 0;
    auto doIt = [](RuncRuntime *r, std::vector<CreateRequest> rs,
                   int *out) -> Task<> {
        auto made = co_await r->createVector(rs);
        *out = made.valueOr(-1);
    };
    sim.spawn(doIt(&runc, reqs, &created));
    sim.run();
    EXPECT_EQ(created, 3);
    auto states = runc.stateVector({"v0", "v1", "v2"});
    for (auto s : states)
        EXPECT_EQ(s, SandboxState::Created);
}

} // namespace
