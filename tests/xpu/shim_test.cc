/** @file Integration tests for XPU-Shim: nIPC, capabilities, xSpawn. */

#include <gtest/gtest.h>

#include <memory>

#include "core/status.hh"
#include "hw/computer.hh"
#include "xpu/client.hh"
#include "xpu/shim.hh"

namespace {

using molecule::core::Errc;
using molecule::hw::buildCpuDpuServer;
using molecule::hw::Computer;
using molecule::hw::DpuGeneration;
using molecule::os::LocalOs;
using molecule::os::Process;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;
using namespace molecule::xpu;

namespace core = molecule::core;

using FdOutcome = core::Expected<XpuFd>;
using ReadOutcome = core::Expected<molecule::os::FifoMessage>;
using SpawnOutcome = core::Expected<XpuPid>;

/** Placeholder for an outcome slot a coroutine fills later. */
template <typename T>
core::Expected<T>
pending()
{
    return core::Error(Errc::InvalidArgument, "not run");
}

/**
 * Host CPU + 2 BF-1 DPUs, one shim each, one process per PU with an
 * attached XPUcall client.
 */
struct ShimFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer =
        buildCpuDpuServer(sim, 2, DpuGeneration::Bf1);
    LocalOs cpuOs{computer->pu(0)};
    LocalOs dpu1Os{computer->pu(1)};
    LocalOs dpu2Os{computer->pu(2)};
    XpuShimNetwork net{*computer};
    XpuShim *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
    XpuShim *dpu1Shim = net.addShim(dpu1Os, TransportKind::MpscPoll);
    XpuShim *dpu2Shim = net.addShim(dpu2Os, TransportKind::MpscPoll);
    Process *cpuProc = nullptr;
    Process *dpu1Proc = nullptr;
    std::unique_ptr<XpuClient> cpuClient;
    std::unique_ptr<XpuClient> dpu1Client;

    void
    SetUp() override
    {
        auto boot = [](ShimFixture *f) -> Task<> {
            f->cpuProc = co_await f->cpuOs.spawnProcess("fn-cpu", 1 << 20);
            f->dpu1Proc =
                co_await f->dpu1Os.spawnProcess("fn-dpu", 1 << 20);
        };
        sim.spawn(boot(this));
        sim.run();
        ASSERT_NE(cpuProc, nullptr);
        ASSERT_NE(dpu1Proc, nullptr);
        cpuClient = std::make_unique<XpuClient>(*cpuShim, *cpuProc);
        dpu1Client = std::make_unique<XpuClient>(*dpu1Shim, *dpu1Proc);
    }
};

Task<>
initFifo(XpuClient &client, std::string uuid, FdOutcome *out)
{
    FdOutcome r = co_await client.xfifoInit(uuid);
    *out = std::move(r);
}

Task<>
connectFifo(XpuClient &client, std::string uuid, FdOutcome *out)
{
    FdOutcome r = co_await client.xfifoConnect(uuid);
    *out = std::move(r);
}

Task<>
grantIt(XpuClient &client, XpuPid target, ObjId obj, Perm perm,
        core::Status *out)
{
    *out = co_await client.grantCap(target, obj, perm);
}

TEST_F(ShimFixture, FifoInitRegistersEverywhere)
{
    FdOutcome r = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "self/cpu-fn", &r));
    sim.run();
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_GE(r.value(), 3);
    // Immediate sync: every shim can resolve the uuid locally.
    EXPECT_NE(cpuShim->caps().findByUuid("self/cpu-fn"), nullptr);
    EXPECT_NE(dpu1Shim->caps().findByUuid("self/cpu-fn"), nullptr);
    EXPECT_NE(dpu2Shim->caps().findByUuid("self/cpu-fn"), nullptr);
    EXPECT_EQ(cpuShim->homedFifoCount(), 1u);
    EXPECT_EQ(dpu1Shim->homedFifoCount(), 0u);
}

TEST_F(ShimFixture, DuplicateUuidIsRejected)
{
    FdOutcome a = pending<XpuFd>();
    FdOutcome b = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "dup", &a));
    sim.run();
    sim.spawn(initFifo(*dpu1Client, "dup", &b));
    sim.run();
    EXPECT_TRUE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.error().code(), Errc::AlreadyExists);
}

TEST_F(ShimFixture, ConnectRequiresCapability)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "guarded", &fifo));
    sim.run();
    ASSERT_TRUE(fifo.ok());

    // Unprivileged remote process cannot connect...
    FdOutcome denied = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "guarded", &denied));
    sim.run();
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.error().code(), Errc::NoPermission);

    // ...until the owner grants it write permission.
    core::Status st;
    const ObjId obj = cpuClient->objectOf(fifo.value());
    sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(), obj, Perm::Write,
                      &st));
    sim.run();
    EXPECT_TRUE(st.ok()) << st.toString();

    FdOutcome ok = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "guarded", &ok));
    sim.run();
    EXPECT_TRUE(ok.ok());
}

TEST_F(ShimFixture, GrantRequiresOwner)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "owned", &fifo));
    sim.run();
    const ObjId obj = cpuClient->objectOf(fifo.value());

    // dpu1 has no owner bit: granting to itself must fail.
    core::Status st;
    sim.spawn(grantIt(*dpu1Client, dpu1Client->xpuPid(), obj, Perm::Read,
                      &st));
    sim.run();
    EXPECT_EQ(st.code(), Errc::NoPermission);
}

TEST_F(ShimFixture, RevokedPermissionStopsConnects)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "revocable", &fifo));
    sim.run();
    const ObjId obj = cpuClient->objectOf(fifo.value());
    core::Status st;
    sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(), obj, Perm::Read,
                      &st));
    sim.run();

    auto revokeIt = [](XpuClient &c, XpuPid t, ObjId o,
                       core::Status *out) -> Task<> {
        *out = co_await c.revokeCap(t, o, Perm::Read);
    };
    sim.spawn(revokeIt(*cpuClient, dpu1Client->xpuPid(), obj, &st));
    sim.run();
    EXPECT_TRUE(st.ok()) << st.toString();

    FdOutcome denied = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "revocable", &denied));
    sim.run();
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.error().code(), Errc::NoPermission);
}

struct NipcResult
{
    core::Status writeStatus;
    SimTime writeLatency;
    molecule::os::FifoMessage received;
};

Task<>
nipcWriter(XpuClient &client, std::string uuid, std::uint64_t bytes,
           NipcResult *out, Simulation &sim)
{
    FdOutcome fd = co_await client.xfifoConnect(uuid);
    const XpuFd rawFd = fd.ok() ? fd.value() : XpuFd(-1);
    const SimTime start = sim.now();
    out->writeStatus = co_await client.xfifoWrite(rawFd, bytes, "req");
    out->writeLatency = sim.now() - start;
}

Task<>
nipcReader(XpuClient &client, std::string uuid, NipcResult *out)
{
    FdOutcome fd = co_await client.xfifoInit(uuid);
    ReadOutcome r = co_await client.xfifoRead(fd.value());
    if (r.ok())
        out->received = r.value();
}

TEST_F(ShimFixture, CrossPuWriteDeliversAndLandsInPaperBand)
{
    // DPU caller writes a CPU-homed fifo (the Fig 8 measurement).
    NipcResult res;
    sim.spawn(nipcReader(*cpuClient, "nipc", &res));
    sim.run();
    core::Status st;
    const ObjId obj = cpuShim->caps().findByUuid("nipc")->id;
    sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(), obj, Perm::Write,
                      &st));
    sim.run();
    sim.spawn(nipcWriter(*dpu1Client, "nipc", 64, &res, sim));
    sim.run();
    EXPECT_TRUE(res.writeStatus.ok()) << res.writeStatus.toString();
    EXPECT_EQ(res.received.bytes, 64u);
    EXPECT_EQ(res.received.tag, "req");
    // nIPC-Poll on BF-1: ~25 us (§6.1).
    EXPECT_GT(res.writeLatency.toMicroseconds(), 12.0);
    EXPECT_LT(res.writeLatency.toMicroseconds(), 45.0);
}

TEST_F(ShimFixture, TransportsOrderAsInFig8)
{
    // Base (FIFO) > MPSC > Poll on the same write path.
    auto measure = [&](TransportKind kind) {
        dpu1Shim->setTransport(kind);
        static int counter = 0;
        std::string uuid = "fig8-" + std::to_string(counter++);
        NipcResult res;
        sim.spawn(nipcReader(*cpuClient, uuid, &res));
        sim.run();
        core::Status st;
        const ObjId obj = cpuShim->caps().findByUuid(uuid)->id;
        sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(), obj,
                          Perm::Write, &st));
        sim.run();
        sim.spawn(nipcWriter(*dpu1Client, uuid, 512, &res, sim));
        sim.run();
        return res.writeLatency;
    };
    const auto base = measure(TransportKind::Fifo);
    const auto mpsc = measure(TransportKind::Mpsc);
    const auto poll = measure(TransportKind::MpscPoll);
    EXPECT_GT(base, mpsc);
    EXPECT_GT(mpsc, poll);
    // Fig 8: base lands in the ~100-250 us band on BF-1.
    EXPECT_GT(base.toMicroseconds(), 80.0);
    EXPECT_LT(base.toMicroseconds(), 260.0);
}

TEST_F(ShimFixture, WriteWithoutCapabilityIsDenied)
{
    NipcResult res;
    sim.spawn(nipcReader(*cpuClient, "locked", &res));
    sim.run();
    // No grant: the connect inside nipcWriter fails, then the write on
    // the invalid fd reports InvalidArgument.
    sim.spawn(nipcWriter(*dpu1Client, "locked", 64, &res, sim));
    sim.run();
    EXPECT_EQ(res.writeStatus.code(), Errc::InvalidArgument);
    EXPECT_EQ(res.received.bytes, 0u);
    // The owner may still write. That releases the blocked reader, so
    // no coroutine is left suspended when the test ends.
    NipcResult owner;
    sim.spawn(nipcWriter(*cpuClient, "locked", 32, &owner, sim));
    sim.run();
    EXPECT_TRUE(owner.writeStatus.ok()) << owner.writeStatus.toString();
    EXPECT_EQ(res.received.bytes, 32u);
}

TEST_F(ShimFixture, CloseReclaimsLazily)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "transient", &fifo));
    sim.run();
    EXPECT_EQ(cpuShim->homedFifoCount(), 1u);

    auto closeIt = [](XpuClient &c, XpuFd fd,
                      core::Status *out) -> Task<> {
        *out = co_await c.xfifoClose(fd);
    };
    core::Status st;
    sim.spawn(closeIt(*cpuClient, fifo.value(), &st));
    sim.run();
    EXPECT_TRUE(st.ok()) << st.toString();
    // Backing queue reclaimed immediately on the home PU...
    EXPECT_EQ(cpuShim->homedFifoCount(), 0u);
    // ...but remote replicas are updated lazily (batched).
    EXPECT_NE(dpu1Shim->caps().findByUuid("transient"), nullptr);
    EXPECT_EQ(cpuShim->lazyQueueDepth(), 1u);

    auto flushIt = [](XpuShim *s) -> Task<> { co_await s->flushLazy(); };
    sim.spawn(flushIt(cpuShim));
    sim.run();
    EXPECT_EQ(dpu1Shim->caps().findByUuid("transient"), nullptr);
    EXPECT_EQ(cpuShim->lazyQueueDepth(), 0u);
}

TEST_F(ShimFixture, XspawnStartsProcessOnTargetPu)
{
    bool hookRan = false;
    Process *spawned = nullptr;
    net.registerProgram("executor",
                        [&](XpuShim &shim, Process &proc) {
                            hookRan = true;
                            spawned = &proc;
                            EXPECT_EQ(shim.puId(), 2);
                        });
    SpawnOutcome r = pending<XpuPid>();
    auto spawnIt = [](XpuClient &c, SpawnOutcome *out) -> Task<> {
        std::vector<CapGrant> capv;
        SpawnOutcome s = co_await c.xspawn(2, "executor", capv);
        *out = std::move(s);
    };
    sim.spawn(spawnIt(*cpuClient, &r));
    sim.run();
    ASSERT_TRUE(r.ok()) << r.error().toString();
    EXPECT_EQ(r.value().pu, 2);
    EXPECT_TRUE(hookRan);
    ASSERT_NE(spawned, nullptr);
    EXPECT_EQ(spawned->name(), "executor");
    EXPECT_EQ(dpu2Os.findProcess(r.value().local), spawned);
}

TEST_F(ShimFixture, XspawnGrantsCapvExplicitly)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "for-child", &fifo));
    sim.run();
    const ObjId obj = cpuClient->objectOf(fifo.value());

    SpawnOutcome r = pending<XpuPid>();
    auto spawnIt = [](XpuClient &c, ObjId o,
                      SpawnOutcome *out) -> Task<> {
        std::vector<CapGrant> capv{CapGrant{o, Perm::Write}};
        SpawnOutcome s = co_await c.xspawn(1, "worker", capv);
        *out = std::move(s);
    };
    sim.spawn(spawnIt(*cpuClient, obj, &r));
    sim.run();
    ASSERT_TRUE(r.ok()) << r.error().toString();
    // The child received exactly the capv permissions, visible on
    // every shim (immediate sync), and nothing else.
    EXPECT_TRUE(dpu1Shim->caps().check(r.value(), obj, Perm::Write));
    EXPECT_TRUE(cpuShim->caps().check(r.value(), obj, Perm::Write));
    EXPECT_FALSE(dpu1Shim->caps().check(r.value(), obj, Perm::Read));
}

TEST_F(ShimFixture, XspawnToUnknownPuFails)
{
    SpawnOutcome r = pending<XpuPid>();
    auto spawnIt = [](XpuClient &c, SpawnOutcome *out) -> Task<> {
        std::vector<CapGrant> capv;
        SpawnOutcome s = co_await c.xspawn(9, "nothing", capv);
        *out = std::move(s);
    };
    sim.spawn(spawnIt(*cpuClient, &r));
    sim.run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::NotFound);
}

TEST_F(ShimFixture, SameUuidNamespaceAcrossPus)
{
    // A fifo initialized on the DPU is connectable from the CPU after
    // a grant: full symmetry of the nIPC path.
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*dpu1Client, "dpu-home", &fifo));
    sim.run();
    ASSERT_TRUE(fifo.ok());
    EXPECT_EQ(dpu1Shim->homedFifoCount(), 1u);

    core::Status st;
    const ObjId obj = dpu1Client->objectOf(fifo.value());
    sim.spawn(grantIt(*dpu1Client, cpuClient->xpuPid(), obj, Perm::Write,
                      &st));
    sim.run();

    NipcResult res;
    auto readIt = [](XpuClient &c, XpuFd fd, NipcResult *out) -> Task<> {
        ReadOutcome r = co_await c.xfifoRead(fd);
        if (r.ok())
            out->received = r.value();
    };
    sim.spawn(readIt(*dpu1Client, fifo.value(), &res));
    sim.spawn(nipcWriter(*cpuClient, "dpu-home", 128, &res, sim));
    sim.run();
    EXPECT_EQ(res.received.bytes, 128u);
}

} // namespace
