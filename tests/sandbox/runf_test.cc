/** @file Tests for runf: vectorized create, Fig 10-c paths, zero-copy. */

#include <gtest/gtest.h>

#include <memory>

#include "hw/calibration.hh"
#include "hw/computer.hh"
#include "sandbox/runf.hh"
#include "sandbox/rung.hh"

namespace {

namespace calib = molecule::hw::calib;
using molecule::hw::buildF1Server;
using molecule::hw::Computer;
using molecule::os::LocalOs;
using molecule::sandbox::CreateRequest;
using molecule::sandbox::FunctionImage;
using molecule::sandbox::Language;
using molecule::sandbox::RunfRuntime;
using molecule::sandbox::RungRuntime;
using molecule::sandbox::SandboxState;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

FunctionImage
kernelImage(const std::string &name, long luts)
{
    FunctionImage img;
    img.funcId = name;
    img.language = Language::FpgaOpenCl;
    img.fpgaResources = {luts, 9000, 30, 60};
    return img;
}

struct RunfFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer = buildF1Server(sim, 1);
    LocalOs hostOs{computer->pu(0)};
    RunfRuntime runf{hostOs, computer->fpga(0)};
    FunctionImage vmult = kernelImage("vmult", 9000);
    FunctionImage madd = kernelImage("madd", 3600);

    SimTime
    timeIt(Task<> task)
    {
        const SimTime t0 = sim.now();
        sim.spawn(std::move(task));
        sim.run();
        return sim.now() - t0;
    }
};

Task<>
createOne(RunfRuntime *r, const CreateRequest &req_in, bool *ok)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::vector<CreateRequest> reqs{req_in};
    const molecule::core::Expected<int> made =
        co_await r->createVector(reqs);
    *ok = made.ok() && made.value() == 1;
}

Task<>
startOne(RunfRuntime *r, const std::string &id_in, bool *ok)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string id = id_in;
    *ok = co_await r->start(id);
}

TEST_F(RunfFixture, Fig10cStartupLadder)
{
    bool ok = false;

    // Baseline: erase + cold program + sandbox prep > 20 s.
    runf.options().eraseBeforeProgram = true;
    runf.options().bitstreamCached = false;
    CreateRequest req{"sb1", &vmult};
    const auto createBaseline = timeIt(createOne(&runf, req, &ok));
    ASSERT_TRUE(ok);
    const auto startBaseline = timeIt(startOne(&runf, "sb1", &ok));
    ASSERT_TRUE(ok);
    const double baselineS =
        (createBaseline + startBaseline).toSeconds();
    EXPECT_GT(baselineS, 20.0);

    // No-Erase: ~3.8 s.
    runf.options().eraseBeforeProgram = false;
    CreateRequest req2{"sb2", &vmult};
    const auto createNoErase = timeIt(createOne(&runf, req2, &ok));
    const auto startNoErase = timeIt(startOne(&runf, "sb2", &ok));
    EXPECT_NEAR((createNoErase + startNoErase).toSeconds(), 3.8, 0.3);

    // Warm-image: bitstream cached host-side, ~1.9 s.
    runf.options().bitstreamCached = true;
    CreateRequest req3{"sb3", &vmult};
    const auto createWarm = timeIt(createOne(&runf, req3, &ok));
    const auto startWarm = timeIt(startOne(&runf, "sb3", &ok));
    EXPECT_NEAR((createWarm + startWarm).toSeconds(), 1.9, 0.2);

    // Warm-sandbox: instance already prepared, ~53 ms to dispatch.
    const auto startAgain = timeIt(startOne(&runf, "sb3", &ok));
    EXPECT_LT(startAgain.toMilliseconds(), 1.0);
}

TEST_F(RunfFixture, WarmSandboxSkipsPrep)
{
    bool ok = false;
    CreateRequest req{"sb", &vmult};
    timeIt(createOne(&runf, req, &ok));
    const auto firstStart = timeIt(startOne(&runf, "sb", &ok));
    EXPECT_NEAR(firstStart.toMilliseconds(), 53.0, 1.0);
    EXPECT_TRUE(runf.warm("sb"));

    // Re-start after a (state-only) delete: still warm.
    auto destroyIt = [](RunfRuntime *r) -> Task<> {
        co_await r->destroy("sb");
    };
    timeIt(destroyIt(&runf));
    const auto secondStart = timeIt(startOne(&runf, "sb", &ok));
    EXPECT_LT(secondStart.toMilliseconds(), 1.0);
}

TEST_F(RunfFixture, VectorCreatePacksOneImage)
{
    std::vector<CreateRequest> reqs;
    reqs.push_back(CreateRequest{"v0", &vmult});
    reqs.push_back(CreateRequest{"v1", &madd});
    int created = 0;
    auto doIt = [](RunfRuntime *r, std::vector<CreateRequest> rs,
                   int *out) -> Task<> {
        auto made = co_await r->createVector(rs);
        *out = made.valueOr(0);
    };
    timeIt(doIt(&runf, reqs, &created));
    EXPECT_EQ(created, 2);
    // One programming pass made both functions resident.
    EXPECT_EQ(computer->fpga(0).programCount(), 1);
    EXPECT_TRUE(runf.cached("vmult"));
    EXPECT_TRUE(runf.cached("madd"));
}

TEST_F(RunfFixture, VectorCreateRespectsResourceBudget)
{
    // 200 copies of a 9000-LUT kernel exceed the F1 fabric.
    std::vector<FunctionImage> imgs;
    std::vector<CreateRequest> reqs;
    imgs.reserve(200);
    for (int i = 0; i < 200; ++i) {
        imgs.push_back(kernelImage("k" + std::to_string(i), 9000));
        reqs.push_back(CreateRequest{"s" + std::to_string(i),
                                     &imgs.back()});
    }
    int created = -1;
    auto doIt = [](RunfRuntime *r, const std::vector<CreateRequest> *rs,
                   int *out) -> Task<> {
        auto made = co_await r->createVector(*rs);
        *out = made.valueOr(0);
    };
    timeIt(doIt(&runf, &reqs, &created));
    EXPECT_EQ(created, 0);
    EXPECT_EQ(computer->fpga(0).programCount(), 0);
}

TEST_F(RunfFixture, StartVectorPrepsConcurrently)
{
    // Vectorized start preps sandboxes in parallel (§3.5): N first
    // starts cost ~one prep, not N.
    std::vector<CreateRequest> reqs{{"v0", &vmult}, {"v1", &madd}};
    int created = 0;
    auto createIt = [](RunfRuntime *r, std::vector<CreateRequest> rs,
                       int *out) -> Task<> {
        auto made = co_await r->createVector(rs);
        *out = made.valueOr(0);
    };
    timeIt(createIt(&runf, reqs, &created));
    ASSERT_EQ(created, 2);

    int started = 0;
    auto startVec = [](RunfRuntime *r, std::vector<std::string> ids,
                       int *out) -> Task<> {
        *out = co_await r->startVector(ids);
    };
    std::vector<std::string> ids{"v0", "v1"};
    const auto elapsed = timeIt(startVec(&runf, ids, &started));
    EXPECT_EQ(started, 2);
    EXPECT_NEAR(elapsed.toMilliseconds(),
                calib::kFpgaSandboxPrepCost.toMilliseconds(), 1.0);
}

TEST_F(RunfFixture, DeleteIsStateOnlyAndNextCreateReplaces)
{
    bool ok = false;
    CreateRequest req{"sb", &vmult};
    timeIt(createOne(&runf, req, &ok));
    auto destroyIt = [](RunfRuntime *r) -> Task<> {
        co_await r->destroy("sb");
    };
    const auto deleteTime = timeIt(destroyIt(&runf));
    // "delete will be empty and directly return" (§3.5).
    EXPECT_EQ(deleteTime, SimTime(0));
    EXPECT_EQ(runf.state("sb"), SandboxState::Stopped);
    // The kernel is still resident until the next create.
    EXPECT_TRUE(runf.cached("vmult"));

    CreateRequest req2{"sb2", &madd};
    timeIt(createOne(&runf, req2, &ok));
    EXPECT_FALSE(runf.cached("vmult"));
    EXPECT_TRUE(runf.cached("madd"));
}

TEST_F(RunfFixture, ZeroCopyChainSkipsDma)
{
    std::vector<FunctionImage> chain;
    chain.push_back(kernelImage("f0", 3000));
    chain.push_back(kernelImage("f1", 3000));
    // Chained functions share a DRAM bank (never run concurrently).
    chain[0].dramBank = 0;
    chain[1].dramBank = 0;
    std::vector<CreateRequest> reqs{{"c0", &chain[0]},
                                    {"c1", &chain[1]}};
    int created = 0;
    auto doIt = [](RunfRuntime *r, std::vector<CreateRequest> rs,
                   int *out) -> Task<> {
        auto made = co_await r->createVector(rs);
        *out = made.valueOr(0);
    };
    timeIt(doIt(&runf, reqs, &created));
    ASSERT_EQ(created, 2);
    bool ok = false;
    timeIt(startOne(&runf, "c0", &ok));
    timeIt(startOne(&runf, "c1", &ok));

    const std::uint64_t kb4 = 4096;
    auto invokeIt = [](RunfRuntime *r, std::string id, std::uint64_t in,
                       std::uint64_t out, bool zin, bool zout) -> Task<> {
        co_await r->invoke(id, 20_us, in, out, zin, zout);
    };
    // Copying chain hop: DMA out + DMA in (50-100 us each, §6.5).
    // One statement per measurement (GCC 12 rule, see task.hh).
    SimTime copying = timeIt(invokeIt(&runf, "c0", kb4, kb4, false,
                                      false));
    copying += timeIt(invokeIt(&runf, "c1", kb4, kb4, false, false));
    // Zero-copy hop: output retained in the bank, input read in place.
    SimTime zerocopy = timeIt(invokeIt(&runf, "c0", kb4, kb4, false,
                                       true));
    zerocopy += timeIt(invokeIt(&runf, "c1", kb4, kb4, true, false));
    EXPECT_LT(zerocopy, copying * 0.7);
}

TEST(Rung, GeneralityLifecycleAndInvoke)
{
    Simulation sim;
    auto computer = molecule::hw::buildFullHetero(sim);
    LocalOs hostOs{computer->pu(0)};
    RungRuntime rung{hostOs, computer->gpuDev(0)};
    FunctionImage img;
    img.funcId = "vecadd";
    img.language = Language::CudaCpp;

    bool ok = false;
    auto createIt = [](RungRuntime *r, CreateRequest req,
                       bool *out) -> Task<> {
        *out = co_await r->create(req);
    };
    CreateRequest req{"g0", &img};
    sim.spawn(createIt(&rung, req, &ok));
    sim.run();
    ASSERT_TRUE(ok);
    EXPECT_TRUE(computer->gpuDev(0).resident("vecadd"));

    auto startIt = [](RungRuntime *r, bool *out) -> Task<> {
        *out = co_await r->start("g0");
    };
    sim.spawn(startIt(&rung, &ok));
    sim.run();
    ASSERT_TRUE(ok);

    auto invokeIt = [](RungRuntime *r) -> Task<> {
        co_await r->invoke("g0", 2_ms, 4096, 4096);
    };
    const auto t0 = sim.now();
    sim.spawn(invokeIt(&rung));
    sim.run();
    EXPECT_GT((sim.now() - t0).toMilliseconds(), 2.0);

    auto destroyIt = [](RungRuntime *r) -> Task<> {
        co_await r->destroy("g0");
    };
    sim.spawn(destroyIt(&rung));
    sim.run();
    EXPECT_FALSE(computer->gpuDev(0).resident("vecadd"));
    EXPECT_EQ(rung.state("g0"), SandboxState::Unknown);
}

} // namespace
