/**
 * @file
 * Chaos properties: fault injection is deterministic and complete.
 *
 *  - Zero impact when disabled: attaching a FaultState and arming an
 *    *empty* plan reproduces the fault-free golden digests bit for
 *    bit (the constants pinned in determinism_test.cc).
 *  - Pinned chaos digests: a fixed fault schedule produces the same
 *    digest run-to-run, serially and under the multi-threaded
 *    SweepRunner.
 *  - No hangs: under any single injected fault (every kind, a grid of
 *    instants and seeds) every invocation with retries either
 *    completes or returns a typed error — the Errc::Hang watchdog
 *    never fires.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "fault/injector.hh"
#include "hw/computer.hh"
#include "sim/stats.hh"
#include "sim/sweep.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Errc;
using core::InvokeOptions;
using core::Molecule;
using core::MoleculeOptions;
using fault::FaultKind;
using fault::FaultState;
using fault::InjectionPlan;
using hw::PuType;
using sim::SimTime;
using workloads::Catalog;

// Fault-free golden digests (determinism_test.cc). An empty plan must
// reproduce them exactly: the fault plumbing schedules no events and
// consumes no randomness when nothing is armed.
constexpr std::uint64_t kGolden42 = 0x582305e76012b3f7ULL;
constexpr std::uint64_t kGolden7 = 0x2dacb53306886fbcULL;
constexpr std::uint64_t kGolden1 = 0x799fabc445a22749ULL;

/**
 * The determinism_test scenario verbatim, with the fault subsystem
 * attached and an empty plan armed. Must hit the fault-free digests.
 */
std::uint64_t
emptyPlanDigest(std::uint64_t seed)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    fault::Injector injector(sim, faults);
    injector.arm(InjectionPlan{});

    sim::Fingerprint fp;
    auto cold =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 0})).value();
    fp.mix(std::uint64_t(cold.endToEnd.raw()));
    auto warm =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 0})).value();
    fp.mix(std::uint64_t(warm.endToEnd.raw()));
    auto remote =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 1})).value();
    fp.mix(std::uint64_t(remote.startup.raw()));

    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime.runSync(runtime.invokeChain(spec, cross)).value();
    fp.mix(std::uint64_t(rec.endToEnd.raw()));
    for (const auto &edge : rec.edgeLatencies)
        fp.mix(std::uint64_t(edge.raw()));
    return fp.digest();
}

/** Mix an invocation outcome — success timings or the typed error. */
void
mixOutcome(sim::Fingerprint &fp,
           const core::Expected<obs::InvocationRecord> &out)
{
    if (out.ok()) {
        fp.mix(std::uint64_t(out.value().endToEnd.raw()));
        fp.mix(std::uint64_t(out.value().pu));
        fp.mix(std::uint64_t(out.value().pusTried.size()));
    } else {
        fp.mix(0xFA17EDULL);
        fp.mix(std::uint64_t(out.error().code()));
        fp.mix(std::uint64_t(out.error().retries()));
    }
}

/**
 * One chaos scenario: the standard workload driven with retries +
 * failover under @p plan. Returns an outcome digest; also reports
 * whether any invocation hit the Errc::Hang watchdog.
 */
std::uint64_t
chaosDigest(std::uint64_t seed, const InjectionPlan &plan,
            bool *sawHang = nullptr)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    FaultState faults;
    MoleculeOptions mo;
    mo.faults = &faults;
    Molecule runtime(*computer, mo);
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.registerCpuFunction("image-resize",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    fault::Injector injector(sim, faults);
    injector.arm(plan);

    bool hang = false;
    sim::Fingerprint fp;
    auto track = [&](const core::Expected<obs::InvocationRecord> &out) {
        hang |= !out.ok() && out.error().code() == Errc::Hang;
        mixOutcome(fp, out);
    };

    InvokeOptions retry;
    retry.maxAttempts = 3;
    for (int round = 0; round < 4; ++round) {
        retry.pu = 1;
        track(runtime.runSync(runtime.invoke("helloworld", retry)));
        retry.pu = -1;
        track(runtime.runSync(runtime.invoke("image-resize", retry)));
    }
    if (sawHang != nullptr)
        *sawHang = hang;
    return fp.digest();
}

/** The pinned chaos schedule: one fault of every kind. */
InjectionPlan
pinnedPlan()
{
    InjectionPlan plan(0);
    plan.crashPu(1, SimTime::milliseconds(250),
                 SimTime::milliseconds(8))
        .degradeLink(0, 1, SimTime::milliseconds(280),
                     SimTime::milliseconds(4), SimTime::milliseconds(12),
                     4.0)
        .oomKill(1, "image-resize", SimTime::milliseconds(300))
        .failFpgaReconfig(0, SimTime::milliseconds(310));
    return plan;
}

// Golden chaos digests for pinnedPlan(): captured once, pinned
// forever. A change to the fault, recovery or retry path that moves
// these must recapture them and say so in the commit.
constexpr std::uint64_t kChaos42 = 0xe6292dc43c5712b8ULL;
constexpr std::uint64_t kChaos7 = 0xe20f473224b555feULL;
constexpr std::uint64_t kChaos1 = 0x9a8a7f180b46919eULL;

TEST(Chaos, EmptyPlanReproducesFaultFreeGoldenDigests)
{
    EXPECT_EQ(emptyPlanDigest(42), kGolden42);
    EXPECT_EQ(emptyPlanDigest(7), kGolden7);
    EXPECT_EQ(emptyPlanDigest(1), kGolden1);
}

TEST(Chaos, PinnedFaultScheduleHasGoldenDigests)
{
    bool hang = true;
    EXPECT_EQ(chaosDigest(42, pinnedPlan(), &hang), kChaos42);
    EXPECT_FALSE(hang);
    EXPECT_EQ(chaosDigest(7, pinnedPlan()), kChaos7);
    EXPECT_EQ(chaosDigest(1, pinnedPlan()), kChaos1);
}

TEST(Chaos, PinnedDigestsHoldUnderSweepRunner)
{
    const std::uint64_t seeds[] = {42, 7, 1, 42, 7, 1};
    const std::uint64_t golden[] = {kChaos42, kChaos7, kChaos1,
                                    kChaos42, kChaos7, kChaos1};
    sim::SweepRunner pool;
    auto digests = pool.map<std::uint64_t>(
        std::size(seeds), [&](std::size_t i) {
            return chaosDigest(seeds[i], pinnedPlan());
        });
    for (std::size_t i = 0; i < std::size(seeds); ++i)
        EXPECT_EQ(digests[i], golden[i]) << "replica " << i;
}

TEST(Chaos, NoHangUnderAnySingleFault)
{
    // Property: any single fault, any instant on a coarse grid, any
    // seed — with retries enabled every invocation completes or
    // returns a typed error; the sim-time watchdog never reports a
    // hang. (FPGA faults are inert on this CPU+DPU box; they still
    // must not wedge anything.)
    const FaultKind kinds[] = {FaultKind::PuCrash,
                               FaultKind::LinkDegrade,
                               FaultKind::FpgaReconfigFail,
                               FaultKind::SandboxOom};
    const std::int64_t instantsMs[] = {0, 1, 5, 40, 200, 400};
    for (std::uint64_t seed : {1, 2, 3}) {
        for (FaultKind kind : kinds) {
            for (std::int64_t ms : instantsMs) {
                InjectionPlan plan;
                const SimTime at = SimTime::milliseconds(ms);
                switch (kind) {
                case FaultKind::PuCrash:
                    plan.crashPu(1, at, SimTime::milliseconds(6));
                    break;
                case FaultKind::LinkDegrade:
                    plan.degradeLink(0, 1, at, SimTime::milliseconds(5),
                                     SimTime::milliseconds(15), 3.0);
                    break;
                case FaultKind::FpgaReconfigFail:
                    plan.failFpgaReconfig(0, at, 2);
                    break;
                case FaultKind::SandboxOom:
                    plan.oomKill(1, "image-resize", at);
                    break;
                }
                bool hang = true;
                (void)chaosDigest(seed, plan, &hang);
                EXPECT_FALSE(hang)
                    << toString(kind) << " at " << ms << "ms, seed "
                    << seed;
            }
        }
    }
}

TEST(Chaos, SameScheduleSameOutcomeDigest)
{
    InjectionPlan::ScatterMix mix;
    mix.sandboxOom = true;
    mix.oomFunction = "image-resize";
    const auto plan = InjectionPlan::scatter(
        21, 3, SimTime::milliseconds(500), 6, mix);
    EXPECT_EQ(chaosDigest(5, plan), chaosDigest(5, plan));
}

} // namespace
