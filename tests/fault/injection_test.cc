/**
 * @file
 * Injector + recovery integration: faults fire at plan instants, the
 * runtime reacts (typed errors, retries, failover, purge + re-warm),
 * and an empty plan leaves the simulation untouched.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "fault/injector.hh"
#include "hw/computer.hh"

namespace {

using namespace molecule;
using core::Errc;
using core::InvokeOptions;
using core::Molecule;
using core::MoleculeOptions;
using fault::FaultState;
using fault::InjectionPlan;
using hw::PuType;
using sim::SimTime;

/** CPU + 2 DPU runtime with a fault state attached. */
struct FaultFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
    FaultState faults;
    std::unique_ptr<Molecule> runtime;

    void
    SetUp() override
    {
        MoleculeOptions opts;
        opts.faults = &faults;
        runtime = std::make_unique<Molecule>(*computer, opts);
        runtime->registerCpuFunction("helloworld",
                                     {PuType::HostCpu, PuType::Dpu});
        runtime->start();
    }
};

TEST_F(FaultFixture, ExplicitPlacementOnDownPuFailsTyped)
{
    faults.crashPu(1);
    InvokeOptions opts;
    opts.pu = 1;
    auto out = runtime->invokeSync("helloworld", opts);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code(), Errc::PuCrashed);
    EXPECT_EQ(out.error().pu(), 1);
}

TEST_F(FaultFixture, FailoverMovesTheRetryToALivePu)
{
    faults.crashPu(1);
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    auto out = runtime->invokeSync("helloworld", opts);
    ASSERT_TRUE(out.ok()) << out.error().toString();
    EXPECT_NE(out.value().pu, 1);
    EXPECT_TRUE(out.value().failedOver);
    ASSERT_FALSE(out.value().pusTried.empty());
    EXPECT_EQ(out.value().pusTried.front(), 1);
}

TEST_F(FaultFixture, RetriesExhaustedCarriesTheCauseChain)
{
    faults.crashPu(1);
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    opts.failover = false; // pinned placement: every attempt fails
    auto out = runtime->invokeSync("helloworld", opts);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code(), Errc::RetriesExhausted);
    EXPECT_EQ(out.error().retries(), 2);
    ASSERT_FALSE(out.error().causes().empty());
    EXPECT_EQ(out.error().causes().front().code, Errc::PuCrashed);
    EXPECT_EQ(out.error().pusTried(), std::vector<int>{1});
}

TEST_F(FaultFixture, PlannedCrashIsPurgedAndRecovered)
{
    // Warm an instance on the DPU, then crash it under a plan.
    ASSERT_TRUE(runtime->invokeSync("helloworld", 1).ok());
    EXPECT_GE(runtime->startup().warmCount("helloworld", 1), 1u);

    fault::Injector injector(sim, faults, nullptr);
    InjectionPlan plan;
    plan.crashPu(1, sim.now() + SimTime::milliseconds(1),
                 SimTime::milliseconds(5));
    injector.arm(plan);
    sim.run();

    EXPECT_EQ(injector.firedCount(), 1);
    ASSERT_NE(runtime->recovery(), nullptr);
    EXPECT_EQ(runtime->recovery()->crashesHandled(), 1);
    EXPECT_EQ(runtime->recovery()->restartsHandled(), 1);
    EXPECT_EQ(faults.puEpoch(1), 1u);
    EXPECT_TRUE(faults.puUp(1));
    // The crash killed the warm pool; the PU still serves (cold).
    EXPECT_EQ(runtime->startup().warmCount("helloworld", 1), 0u);
    auto again = runtime->invokeSync("helloworld", 1);
    ASSERT_TRUE(again.ok()) << again.error().toString();
    EXPECT_TRUE(again.value().coldStart);
}

TEST_F(FaultFixture, MidFlightCrashRetriesToCompletion)
{
    // Crash lands while the cold start is in flight; the attempt
    // fails typed, the retry waits out the downtime and succeeds.
    fault::Injector injector(sim, faults, nullptr);
    InjectionPlan plan;
    plan.crashPu(1, sim.now() + SimTime::milliseconds(2),
                 SimTime::milliseconds(3));
    injector.arm(plan);

    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 4;
    opts.failover = false;
    auto out = runtime->invokeSync("helloworld", opts);
    ASSERT_TRUE(out.ok()) << out.error().toString();
    EXPECT_EQ(out.value().pu, 1);
}

TEST_F(FaultFixture, LinkBlackoutStallsRemoteInvocations)
{
    ASSERT_TRUE(runtime->invokeSync("helloworld", 1).ok()); // warm it
    const auto warm = runtime->invokeSync("helloworld", 1);
    ASSERT_TRUE(warm.ok());

    fault::LinkFault lf;
    lf.downUntil = sim.now() + SimTime::milliseconds(20);
    lf.degradedUntil = sim.now() + SimTime::milliseconds(20);
    lf.factor = 1.0;
    faults.setLinkFault(0, 1, lf);

    const auto stalled = runtime->invokeSync("helloworld", 1);
    ASSERT_TRUE(stalled.ok());
    // The gateway->DPU transfer waited out most of the blackout.
    EXPECT_GT(stalled.value().endToEnd,
              warm.value().endToEnd + SimTime::milliseconds(10));
}

TEST(FaultInjection, FpgaReconfigFailureIsTypedAndRetryable)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    FaultState faults;
    MoleculeOptions opts;
    opts.faults = &faults;
    Molecule runtime(*computer, opts);
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.start();

    const int hostPu = computer->fpga(0).hostPuId();
    faults.armFpgaReconfigFailure(hostPu, 1);
    auto failed = runtime.invokeFpgaSync("fpga-gzip", 0, 1024);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code(), Errc::FpgaReconfigFailed);

    // One armed failure: the next programming attempt succeeds.
    faults.armFpgaReconfigFailure(hostPu, 1);
    InvokeOptions retry;
    retry.maxAttempts = 2;
    auto ok = runtime.invokeFpgaSync("fpga-gzip", 0, 1024, retry);
    ASSERT_TRUE(ok.ok()) << ok.error().toString();
}

TEST_F(FaultFixture, OomKillEvictsTheWarmPool)
{
    ASSERT_TRUE(runtime->invokeSync("helloworld", 0).ok());
    EXPECT_GE(runtime->startup().warmCount("helloworld", 0), 1u);

    faults.oomKill(0, "helloworld");
    EXPECT_EQ(runtime->startup().warmCount("helloworld", 0), 0u);

    auto again = runtime->invokeSync("helloworld", 0);
    ASSERT_TRUE(again.ok()) << again.error().toString();
    EXPECT_TRUE(again.value().coldStart);
}

TEST_F(FaultFixture, InjectorEmitsSpansAndCounters)
{
    obs::Tracer tracer(sim);
    fault::Injector injector(sim, faults, &tracer);
    InjectionPlan plan;
    plan.crashPu(1, sim.now(), SimTime::milliseconds(2));
    plan.oomKill(0, "helloworld", sim.now() + SimTime::milliseconds(1));
    injector.arm(plan);
    sim.run();

    EXPECT_EQ(injector.firedCount(), 2);
    EXPECT_EQ(tracer.metrics().counter("fault.injected").value(), 2);
    EXPECT_EQ(tracer.metrics().counter("fault.pu-crash").value(), 1);
    EXPECT_EQ(tracer.metrics().counter("fault.sandbox-oom").value(), 1);
    EXPECT_EQ(tracer.metrics().counter("fault.pu_restart").value(), 1);
}

TEST_F(FaultFixture, EmptyPlanSchedulesNothing)
{
    fault::Injector injector(sim, faults, nullptr);
    injector.arm(InjectionPlan{});
    const auto before = sim.now();
    sim.run();
    EXPECT_EQ(sim.now(), before);
    EXPECT_EQ(injector.firedCount(), 0);
    EXPECT_FALSE(faults.anyArmed());
}

} // namespace
