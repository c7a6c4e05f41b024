/** @file Unit tests for the GPU device model (generality path). */

#include <gtest/gtest.h>

#include "hw/calibration.hh"
#include "hw/gpu.hh"

namespace {

namespace calib = molecule::hw::calib;
using molecule::hw::GpuDevice;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

Task<>
load(GpuDevice &gpu, const std::string &fn_in)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string fn = fn_in;
    co_await gpu.loadModule(fn);
}

Task<>
launchIt(GpuDevice &gpu, const std::string &fn_in, SimTime t,
         std::vector<SimTime> *done, Simulation &sim)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string fn = fn_in;
    co_await gpu.launch(fn, t);
    done->push_back(sim.now());
}

TEST(Gpu, FirstLoadPaysContextCreation)
{
    Simulation sim;
    GpuDevice gpu(sim, 0, 0, 4);
    sim.spawn(load(gpu, "vecadd"));
    sim.run();
    EXPECT_EQ(sim.now(),
              calib::kGpuContextCreateCost + calib::kGpuModuleLoadCost);
    const auto t1 = sim.now();
    sim.spawn(load(gpu, "vecmul"));
    sim.run();
    // Second module shares the MPS context.
    EXPECT_EQ(sim.now() - t1, calib::kGpuModuleLoadCost);
    EXPECT_EQ(gpu.residentCount(), 2u);
}

TEST(Gpu, MultipleModulesResidentConcurrently)
{
    Simulation sim;
    GpuDevice gpu(sim, 0, 0, 4);
    sim.spawn(load(gpu, "a"));
    sim.spawn(load(gpu, "b"));
    sim.run();
    EXPECT_TRUE(gpu.resident("a"));
    EXPECT_TRUE(gpu.resident("b"));
    gpu.unloadModule("a");
    EXPECT_FALSE(gpu.resident("a"));
    EXPECT_TRUE(gpu.resident("b"));
}

TEST(Gpu, KernelSlotsLimitConcurrency)
{
    Simulation sim;
    GpuDevice gpu(sim, 0, 0, 2);
    sim.spawn(load(gpu, "k"));
    sim.run();
    const auto t0 = sim.now();
    std::vector<SimTime> done;
    for (int i = 0; i < 4; ++i)
        sim.spawn(launchIt(gpu, "k", 1_ms, &done, sim));
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    // 2 at a time: second pair lands ~2ms after t0.
    EXPECT_LT((done[1] - t0).toMilliseconds(), 1.1);
    EXPECT_GT((done[3] - t0).toMilliseconds(), 1.9);
    EXPECT_EQ(gpu.launchCount(), 4);
}

} // namespace
