/**
 * @file
 * Security and conservation invariants, parameterized where the
 * property must hold across a space of inputs:
 *
 *  - capability security: no XPU-FIFO operation succeeds without the
 *    matching permission bit, for every permission combination;
 *  - memory conservation: physical memory on a PU returns to its
 *    baseline after any create/destroy sequence;
 *  - FIFO ordering: messages arrive in write order across PUs;
 *  - keep-alive: the warm pool never exceeds capacity under any
 *    policy.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "xpu/client.hh"

namespace {

using namespace molecule;
using core::KeepAliveConfig;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using core::Errc;
using xpu::Perm;
using xpu::TransportKind;

// ---------------------------------------------------------------------
// Capability security, parameterized over granted permission sets.
// ---------------------------------------------------------------------

class CapabilitySecurity : public ::testing::TestWithParam<Perm>
{
  protected:
    struct World
    {
        sim::Simulation sim;
        std::unique_ptr<hw::Computer> computer =
            hw::buildCpuDpuServer(sim, 1, hw::DpuGeneration::Bf1);
        os::LocalOs cpuOs{computer->pu(0)};
        os::LocalOs dpuOs{computer->pu(1)};
        xpu::XpuShimNetwork net{*computer};
        xpu::XpuShim *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
        xpu::XpuShim *dpuShim =
            net.addShim(dpuOs, TransportKind::MpscPoll);
        os::Process *owner = nullptr;
        os::Process *other = nullptr;
        std::unique_ptr<xpu::XpuClient> ownerClient;
        std::unique_ptr<xpu::XpuClient> otherClient;

        World()
        {
            auto boot = [](World *w) -> sim::Task<> {
                w->owner =
                    co_await w->cpuOs.spawnProcess("owner", 1 << 20);
                w->other =
                    co_await w->dpuOs.spawnProcess("other", 1 << 20);
            };
            sim.spawn(boot(this));
            sim.run();
            ownerClient =
                std::make_unique<xpu::XpuClient>(*cpuShim, *owner);
            otherClient =
                std::make_unique<xpu::XpuClient>(*dpuShim, *other);
        }
    };
};

TEST_P(CapabilitySecurity, OperationsMatchGrantedBits)
{
    const Perm granted = GetParam();
    World w;

    core::Status writeStatus, readStatus;
    auto scenario = [](World *world, Perm perm, core::Status *ws,
                       core::Status *rs) -> sim::Task<> {
        auto f = co_await world->ownerClient->xfifoInit("guarded");
        const auto obj = world->ownerClient->objectOf(f.value());
        if (perm != Perm::None) {
            (void)co_await world->ownerClient->grantCap(
                world->otherClient->xpuPid(), obj, perm);
        }
        auto ofd = co_await world->otherClient->xfifoConnect("guarded");
        if (!ofd.ok()) {
            *ws = ofd.status();
            *rs = ofd.status();
            co_return;
        }
        *ws = co_await world->otherClient->xfifoWrite(ofd.value(), 64,
                                                      "m");
        if (ws->ok()) {
            // Drain so a read check can't block forever.
            auto r = co_await world->ownerClient->xfifoRead(f.value());
            EXPECT_TRUE(r.ok());
        }
        // Read permission check (non-blocking expectation: only test
        // the denial path; permitted reads would block on empty).
        if (!hasPerm(perm, Perm::Read)) {
            auto r =
                co_await world->otherClient->xfifoRead(ofd.value());
            *rs = r.status();
        } else {
            *rs = core::Status();
        }
    };
    w.sim.spawn(scenario(&w, granted, &writeStatus, &readStatus));
    w.sim.run();

    if (granted == Perm::None) {
        EXPECT_EQ(writeStatus.code(), Errc::NoPermission);
    } else if (hasPerm(granted, Perm::Write)) {
        EXPECT_TRUE(writeStatus.ok()) << writeStatus.toString();
    } else {
        EXPECT_EQ(writeStatus.code(), Errc::NoPermission);
    }
    if (!hasPerm(granted, Perm::Read) && granted != Perm::None) {
        EXPECT_EQ(readStatus.code(), Errc::NoPermission);
    }
}

INSTANTIATE_TEST_SUITE_P(PermSets, CapabilitySecurity,
                         ::testing::Values(Perm::None, Perm::Read,
                                           Perm::Write,
                                           Perm::Read | Perm::Write));

// ---------------------------------------------------------------------
// Memory conservation through arbitrary lifecycle sequences.
// ---------------------------------------------------------------------

TEST(MemoryConservation, CreateDestroyReturnsToBaseline)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.warmCapacity = 0; // destroy on release
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("image-resize",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    const auto baseline = computer->pu(0).memoryUsed();

    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4; ++i)
            (void)runtime.runSync(runtime.invoke("image-resize", {.pu = 0}));
        EXPECT_EQ(computer->pu(0).memoryUsed(), baseline)
            << "round " << round;
    }
}

TEST(MemoryConservation, WarmInstancesHoldExactlyTheirFootprint)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerCpuFunction("image-resize",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    const auto baseline = computer->pu(0).memoryUsed();
    (void)runtime.runSync(runtime.invoke("image-resize", {.pu = 0}));
    const auto &img = runtime.catalog().cpu("image-resize").image;
    // One cfork'd warm instance: private heap plus the COW pages its
    // first execution dirtied (the runtime region itself stays shared
    // with the template, already in the baseline).
    const auto cowBytes = std::uint64_t(
        double(img.mem.runtimeShared) * img.cowTouchFraction);
    EXPECT_EQ(computer->pu(0).memoryUsed() - baseline,
              img.mem.privateBytes + cowBytes);
}

// ---------------------------------------------------------------------
// Cross-PU FIFO ordering.
// ---------------------------------------------------------------------

TEST(FifoOrdering, CrossPuMessagesArriveInWriteOrder)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    os::LocalOs cpuOs{computer->pu(0)};
    os::LocalOs dpuOs{computer->pu(1)};
    xpu::XpuShimNetwork net{*computer};
    auto *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
    auto *dpuShim = net.addShim(dpuOs, TransportKind::MpscPoll);

    os::Process *r = nullptr, *w = nullptr;
    auto boot = [](os::LocalOs *a, os::LocalOs *b, os::Process **rp,
                   os::Process **wp) -> sim::Task<> {
        *rp = co_await a->spawnProcess("r", 1 << 20);
        *wp = co_await b->spawnProcess("w", 1 << 20);
    };
    sim.spawn(boot(&cpuOs, &dpuOs, &r, &w));
    sim.run();
    xpu::XpuClient reader(*cpuShim, *r);
    xpu::XpuClient writer(*dpuShim, *w);

    std::vector<std::string> received;
    auto scenario = [](xpu::XpuClient *rd, xpu::XpuClient *wr,
                       std::vector<std::string> *out) -> sim::Task<> {
        auto fd = co_await rd->xfifoInit("ordered");
        (void)co_await rd->grantCap(wr->xpuPid(),
                                    rd->objectOf(fd.value()),
                                    Perm::Write);
        auto wfd = co_await wr->xfifoConnect("ordered");
        for (int i = 0; i < 8; ++i) {
            std::string tag = "msg" + std::to_string(i);
            (void)co_await wr->xfifoWrite(wfd.value(), 64, tag);
        }
        for (int i = 0; i < 8; ++i) {
            auto msg = co_await rd->xfifoRead(fd.value());
            out->push_back(msg.value().tag);
        }
    };
    sim.spawn(scenario(&reader, &writer, &received));
    sim.run();
    ASSERT_EQ(received.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(received[std::size_t(i)],
                  "msg" + std::to_string(i));
}

// ---------------------------------------------------------------------
// Keep-alive capacity invariant under both policies.
// ---------------------------------------------------------------------

class KeepAliveSweep
    : public ::testing::TestWithParam<KeepAliveConfig::Kind>
{
};

TEST_P(KeepAliveSweep, PoolNeverExceedsCapacity)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.warmCapacity = 3;
    options.startup.keepAlive.kind = GetParam();
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("helloworld", {PuType::HostCpu});
    runtime.start();
    for (int i = 0; i < 10; ++i) {
        (void)runtime.runSync(runtime.invoke("helloworld", {.pu = 0}));
        EXPECT_LE(runtime.startup().warmCount("helloworld", 0), 3u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, KeepAliveSweep,
    ::testing::Values(KeepAliveConfig::Kind::Lru,
                      KeepAliveConfig::Kind::GreedyDual,
                      KeepAliveConfig::Kind::Histogram));

} // namespace
