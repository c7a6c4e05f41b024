/** @file Unit tests for the FPGA device model. */

#include <gtest/gtest.h>

#include "hw/calibration.hh"
#include "hw/fpga.hh"

namespace {

namespace calib = molecule::hw::calib;
using molecule::hw::FpgaDevice;
using molecule::hw::FpgaImage;
using molecule::hw::FpgaResources;
using molecule::hw::KernelSlot;
using molecule::hw::ProgramMode;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

FpgaImage
twoSlotImage()
{
    FpgaImage img;
    img.id = 1;
    img.slots.push_back(KernelSlot{"madd", {3600, 8000, 30, 60}, 0});
    img.slots.push_back(KernelSlot{"mmult", {9000, 9000, 30, 64}, 1});
    return img;
}

Task<>
programIt(FpgaDevice &dev, const FpgaImage &img_in, ProgramMode mode,
          bool retain)
{
    // Copy before the first suspension (task.hh rule 1).
    const FpgaImage img = img_in;
    const molecule::core::Status st =
        co_await dev.program(img, mode, retain);
    EXPECT_TRUE(st.ok());
}

TEST(FpgaResources, ArithmeticAndFit)
{
    FpgaResources a{10, 20, 3, 4};
    FpgaResources b{5, 5, 1, 1};
    auto c = a + b;
    EXPECT_EQ(c.luts, 15);
    EXPECT_EQ(c.dsps, 5);
    EXPECT_TRUE(b.fitsIn(a));
    EXPECT_FALSE(a.fitsIn(b));
}

TEST(FpgaResources, WrapperIsFivePercentLuts)
{
    auto w = FpgaResources::wrapperOverhead();
    EXPECT_NEAR(double(w.luts) / double(calib::kF1TotalLuts), 0.05,
                1e-3);
}

TEST(Fpga, ProgramMakesFunctionsResident)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    EXPECT_FALSE(dev.hasImage());
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cold, false));
    sim.run();
    EXPECT_TRUE(dev.hasImage());
    EXPECT_TRUE(dev.resident("madd"));
    EXPECT_TRUE(dev.resident("mmult"));
    EXPECT_FALSE(dev.resident("mscale"));
    // Cold programming takes the calibrated load time (Fig 10-c).
    EXPECT_EQ(sim.now(), calib::kFpgaProgramColdCost);
}

TEST(Fpga, CachedProgramIsFaster)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cached, false));
    sim.run();
    EXPECT_EQ(sim.now(), calib::kFpgaProgramCachedCost);
    EXPECT_LT(calib::kFpgaProgramCachedCost, calib::kFpgaProgramColdCost);
}

TEST(Fpga, EraseTakesSecondsAndDropsImage)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cold, false));
    sim.run();
    auto e = [](FpgaDevice &d) -> Task<> { co_await d.erase(); };
    sim.spawn(e(dev));
    sim.run();
    EXPECT_FALSE(dev.hasImage());
    EXPECT_GT(calib::kFpgaEraseCost, 10_s);
    EXPECT_EQ(dev.eraseCount(), 1);
}

Task<>
invokeIt(FpgaDevice &dev, const std::string &fn_in, SimTime t,
         std::vector<SimTime> *done, Simulation &sim)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string fn = fn_in;
    co_await dev.invoke(fn, t);
    done->push_back(sim.now());
}

TEST(Fpga, DifferentSlotsRunConcurrently)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cold, false));
    sim.run();
    const auto t0 = sim.now();
    std::vector<SimTime> done;
    sim.spawn(invokeIt(dev, "madd", 100_us, &done, sim));
    sim.spawn(invokeIt(dev, "mmult", 100_us, &done, sim));
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Both finish ~together: concurrent regions (vectorized start).
    EXPECT_EQ(done[0], done[1]);
    EXPECT_LT((done[0] - t0).toMicroseconds(), 150.0);
}

TEST(Fpga, SameSlotSerializes)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cold, false));
    sim.run();
    const auto t0 = sim.now();
    std::vector<SimTime> done;
    sim.spawn(invokeIt(dev, "madd", 100_us, &done, sim));
    sim.spawn(invokeIt(dev, "madd", 100_us, &done, sim));
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GT((done[1] - t0).toMicroseconds(), 190.0);
}

TEST(Fpga, DramRetentionSurvivesReprogram)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 4);
    sim.spawn(programIt(dev, twoSlotImage(), ProgramMode::Cold, false));
    sim.run();
    auto w = [](FpgaDevice &d) -> Task<> {
        const std::string tag = "payload";
        co_await d.bankWrite(1, tag, 4096);
    };
    sim.spawn(w(dev));
    sim.run();
    ASSERT_TRUE(dev.bankPeek(1, "payload").has_value());

    // Reprogram with retention: data survives (Fig 13 zero-copy).
    FpgaImage img2 = twoSlotImage();
    img2.id = 2;
    sim.spawn(programIt(dev, img2, ProgramMode::Cached, true));
    sim.run();
    ASSERT_TRUE(dev.bankPeek(1, "payload").has_value());
    EXPECT_EQ(*dev.bankPeek(1, "payload"), 4096u);

    // Reprogram without retention: banks are cleared.
    FpgaImage img3 = twoSlotImage();
    img3.id = 3;
    sim.spawn(programIt(dev, img3, ProgramMode::Cached, false));
    sim.run();
    EXPECT_FALSE(dev.bankPeek(1, "payload").has_value());
}

TEST(Fpga, BankClearDropsData)
{
    Simulation sim;
    FpgaDevice dev(sim, 0, 0, FpgaResources::f1Totals(), 2);
    auto w = [](FpgaDevice &d) -> Task<> {
        const std::string tag = "x";
        co_await d.bankWrite(0, tag, 100);
    };
    sim.spawn(w(dev));
    sim.run();
    dev.bankClear(0);
    EXPECT_FALSE(dev.bankPeek(0, "x").has_value());
}

TEST(Fpga, TwelveFunctionWrapperMatchesTable4Scale)
{
    // Table 4: a 12-function image uses ~10.1% LUTs and ~22.5% BRAMs.
    FpgaImage img;
    img.id = 9;
    for (int i = 0; i < 4; ++i) {
        img.slots.push_back(
            KernelSlot{"madd" + std::to_string(i), {3600, 8530, 30, 60}});
        img.slots.push_back(KernelSlot{"mmult" + std::to_string(i),
                                       {9007, 9530, 30, 64}});
        img.slots.push_back(KernelSlot{"mscale" + std::to_string(i),
                                       {2500, 7539, 30, 56}});
    }
    auto total = img.totalResources();
    auto budget = FpgaResources::f1Totals();
    EXPECT_NEAR(double(total.luts) / double(budget.luts), 0.101, 0.01);
    EXPECT_NEAR(double(total.brams) / double(budget.brams), 0.225, 0.03);
    EXPECT_TRUE(total.fitsIn(budget));
}

} // namespace
