/** @file Integration tests for XPU-Shim: nIPC, capabilities, xSpawn. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hh"
#include "hw/computer.hh"
#include "obs/trace.hh"
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
initFifo(XpuClient &client, const std::string &uuid_in, FdOutcome *out)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string uuid = uuid_in;
    FdOutcome r = co_await client.xfifoInit(uuid);
    *out = std::move(r);
}

Task<>
connectFifo(XpuClient &client, const std::string &uuid_in,
            FdOutcome *out)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string uuid = uuid_in;
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

// Connect and close accept Read or Write alone. A Write-only holder,
// like every chain edge's writer, connects and closes; a process that
// holds neither bit is refused with NoPermission and the call's own
// message.
TEST_F(ShimFixture, WriteOnlyHolderConnectsAndClosesOthersAreRefused)
{
    FdOutcome fifo = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "edge", &fifo));
    sim.run();
    ASSERT_TRUE(fifo.ok());
    const ObjId obj = cpuClient->objectOf(fifo.value());

    FdOutcome denied = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "edge", &denied));
    sim.run();
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.error().code(), Errc::NoPermission);
    EXPECT_EQ(denied.error().detail(), "connect needs read or write");

    core::Status st;
    sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(), obj, Perm::Write,
                      &st));
    sim.run();
    ASSERT_TRUE(st.ok()) << st.toString();

    auto closeIt = [](XpuClient &c, XpuFd fd,
                      core::Status *out) -> Task<> {
        *out = co_await c.xfifoClose(fd);
    };
    FdOutcome first = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "edge", &first));
    sim.run();
    ASSERT_TRUE(first.ok()) << first.error().toString();
    sim.spawn(closeIt(*dpu1Client, first.value(), &st));
    sim.run();
    EXPECT_TRUE(st.ok()) << st.toString();

    // Connected, then stripped of Write: the close is refused.
    FdOutcome second = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "edge", &second));
    sim.run();
    ASSERT_TRUE(second.ok()) << second.error().toString();
    auto revokeIt = [](XpuClient &c, XpuPid t, ObjId o,
                       core::Status *out) -> Task<> {
        *out = co_await c.revokeCap(t, o, Perm::Write);
    };
    sim.spawn(revokeIt(*cpuClient, dpu1Client->xpuPid(), obj, &st));
    sim.run();
    ASSERT_TRUE(st.ok()) << st.toString();
    sim.spawn(closeIt(*dpu1Client, second.value(), &st));
    sim.run();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), Errc::NoPermission);
    EXPECT_EQ(st.error().detail(), "close needs read or write");
}

struct NipcResult
{
    core::Status writeStatus;
    SimTime writeLatency;
    molecule::os::FifoMessage received;
};

Task<>
nipcWriter(XpuClient &client, const std::string &uuid_in,
           std::uint64_t bytes, NipcResult *out, Simulation &sim)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string uuid = uuid_in;
    FdOutcome fd = co_await client.xfifoConnect(uuid);
    const XpuFd rawFd = fd.ok() ? fd.value() : XpuFd(-1);
    const SimTime start = sim.now();
    out->writeStatus = co_await client.xfifoWrite(rawFd, bytes, "req");
    out->writeLatency = sim.now() - start;
}

Task<>
nipcReader(XpuClient &client, const std::string &uuid_in,
           NipcResult *out)
{
    // Copy before the first suspension (task.hh rule 1).
    const std::string uuid = uuid_in;
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

TEST_F(ShimFixture, ClosedFifoDescriptorIsReusedOnceRemovalsFlush)
{
    auto closeIt = [](XpuClient &c, XpuFd fd,
                      core::Status *out) -> Task<> {
        *out = co_await c.xfifoClose(fd);
    };
    auto flushIt = [](XpuShim *s) -> Task<> { co_await s->flushLazy(); };
    FdOutcome fd = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "reuse-0", &fd));
    sim.run();
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    const DistributedObject *first = cpuShim->caps().findByUuid("reuse-0");
    ASSERT_NE(first, nullptr);
    core::Status st;
    sim.spawn(closeIt(*cpuClient, fd.value(), &st));
    sim.run();
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(cpuShim->retiredDescriptorCount(), 1u);

    // The peers' replicas still hold it: a new fifo gets another.
    sim.spawn(initFifo(*cpuClient, "reuse-1", &fd));
    sim.run();
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    EXPECT_NE(cpuShim->caps().findByUuid("reuse-1"), first);

    // Once the removal reaches every peer, no replica row, live or
    // erased, holds it, and the next fifo takes it.
    sim.spawn(flushIt(cpuShim));
    sim.run();
    EXPECT_EQ(dpu1Shim->caps().findByUuid("reuse-0"), nullptr);
    sim.spawn(initFifo(*cpuClient, "reuse-2", &fd));
    sim.run();
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    EXPECT_EQ(cpuShim->caps().findByUuid("reuse-2"), first);
    EXPECT_EQ(dpu2Shim->caps().findByUuid("reuse-2"), first);
}

TEST_F(ShimFixture, ReusedDescriptorIsRenamedOnEveryReplica)
{
    auto closeIt = [](XpuClient &c, XpuFd fd,
                      core::Status *out) -> Task<> {
        *out = co_await c.xfifoClose(fd);
    };
    auto flushIt = [](XpuShim *s) -> Task<> { co_await s->flushLazy(); };
    FdOutcome fd = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "rename-old", &fd));
    sim.run();
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    const DistributedObject *desc = cpuShim->caps().findByUuid("rename-old");
    ASSERT_NE(desc, nullptr);
    core::Status st;
    sim.spawn(closeIt(*cpuClient, fd.value(), &st));
    sim.run();
    ASSERT_TRUE(st.ok()) << st.toString();
    sim.spawn(flushIt(cpuShim));
    sim.run();

    // The next fifo takes the retired descriptor; its new uuid, and
    // so the hash stored with it, replaces the old one everywhere.
    sim.spawn(initFifo(*cpuClient, "rename-new", &fd));
    sim.run();
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    EXPECT_EQ(desc->uuid.str(), "rename-new");
    EXPECT_EQ(desc->uuid.hash(),
              std::hash<std::string_view>{}("rename-new"));
    for (XpuShim *shim : {cpuShim, dpu1Shim, dpu2Shim}) {
        SCOPED_TRACE(shim->puId());
        EXPECT_EQ(shim->caps().findByUuid("rename-new"), desc);
        EXPECT_EQ(shim->caps().findByUuid(desc->uuid), desc);
        EXPECT_EQ(shim->caps().findByUuid("rename-old"), nullptr);
    }
}

TEST_F(ShimFixture, CrashWithPendingRemovalsKeepsDescriptorReuseBounded)
{
    auto cycle = [](XpuClient &c, std::string uuid,
                    core::Status *out) -> Task<> {
        FdOutcome fd = co_await c.xfifoInit(uuid);
        if (!fd) {
            *out = fd.error();
            co_return;
        }
        *out = co_await c.xfifoClose(fd.value());
    };
    core::Status st;
    // Three closes wait in the lazy batch when the PU crashes: the
    // peers keep those objects, and so their descriptors, for good.
    for (int i = 0; i < 3; ++i) {
        sim.spawn(cycle(*cpuClient, "before-" + std::to_string(i), &st));
        sim.run();
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    EXPECT_EQ(cpuShim->lazyQueueDepth(), 3u);
    cpuShim->crashLocal();
    cpuShim->resyncFrom(*dpu1Shim);
    EXPECT_NE(dpu1Shim->caps().findByUuid("before-0"), nullptr);

    using Spares = molecule::sim::SpareRecords<DistributedObject>;
    std::size_t most = 0;
    for (int i = 0; i < 200; ++i) {
        sim.spawn(cycle(*cpuClient, "after-" + std::to_string(i), &st));
        sim.run();
        ASSERT_TRUE(st.ok()) << st.toString();
        most = std::max(most, cpuShim->retiredDescriptorCount());
    }
    EXPECT_LE(most, Spares::kCapacity);
    // The held descriptors do not stop reuse: the list stays about
    // one lazy batch deep.
    EXPECT_LE(cpuShim->retiredDescriptorCount(), 3 + 2 * 8u);
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

/**
 * ShimFixture with a tracer: traced() runs one coroutine under a
 * "pin" root span with both clients pointed at it, and returns the
 * finished spans as lines (open order as "#id", finish order as line
 * order, parent, start and duration relative to the root, PU, arg).
 */
struct ShimTraceFixture : ShimFixture
{
    molecule::obs::Tracer tracer{sim};

    template <typename Body>
    std::vector<std::string>
    traced(Body body)
    {
        tracer.clear();
        molecule::obs::Span root = molecule::obs::Span::root(
            &tracer, "pin", molecule::obs::Layer::Xpu, 0);
        cpuClient->setTraceContext(root.ctx());
        dpu1Client->setTraceContext(root.ctx());
        sim.spawn(body());
        sim.run();
        root.finish();
        cpuClient->setTraceContext({});
        dpu1Client->setTraceContext({});

        const auto &spans = tracer.records();
        const auto &top = spans[spans.size() - 1];
        std::vector<std::string> lines;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto &r = spans[i];
            std::string parent = "-";
            for (std::size_t j = 0; j < spans.size(); ++j)
                if (r.parentId != 0 && spans[j].spanId == r.parentId)
                    parent = spans[j].name;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "#%d %s<%s @%lld+%lld pu=%d arg=%lld",
                          int(r.spanId - top.spanId), r.name,
                          parent.c_str(),
                          static_cast<long long>(r.start - top.start),
                          static_cast<long long>(r.end - r.start),
                          int(r.pu), static_cast<long long>(r.arg));
            lines.push_back(buf);
        }
        return lines;
    }

    /** Print @p lines as a C++ initializer (for re-pinning). */
    static void
    dump(const std::vector<std::string> &lines)
    {
        for (const auto &l : lines)
            std::printf("        \"%s\",\n", l.c_str());
    }
};

TEST_F(ShimTraceFixture, CrossPuWriteAndReadSpanTree)
{
    // A CPU-homed fifo the DPU may write and read.
    FdOutcome self = pending<XpuFd>();
    sim.spawn(initFifo(*cpuClient, "pin/rw", &self));
    sim.run();
    ASSERT_TRUE(self.ok());
    core::Status st;
    sim.spawn(grantIt(*cpuClient, dpu1Client->xpuPid(),
                      cpuClient->objectOf(self.value()),
                      Perm::Read | Perm::Write, &st));
    sim.run();
    ASSERT_TRUE(st.ok());
    FdOutcome remote = pending<XpuFd>();
    sim.spawn(connectFifo(*dpu1Client, "pin/rw", &remote));
    sim.run();
    ASSERT_TRUE(remote.ok());

    // DPU writes across the interconnect, the owner reads locally;
    // then the owner writes locally and the DPU reads remotely.
    std::uint64_t got[2] = {0, 0};
    const std::int64_t cpuCalls = cpuShim->xpucallCount();
    const std::int64_t dpuCalls = dpu1Shim->xpucallCount();
    auto lines = traced([&]() -> Task<> {
        core::Status w1 =
            co_await dpu1Client->xfifoWrite(remote.value(), 256, "req");
        EXPECT_TRUE(w1.ok());
        ReadOutcome r1 = co_await cpuClient->xfifoRead(self.value());
        got[0] = r1.ok() ? r1.value().bytes : 0;
        core::Status w2 =
            co_await cpuClient->xfifoWrite(self.value(), 64, "req");
        EXPECT_TRUE(w2.ok());
        ReadOutcome r2 = co_await dpu1Client->xfifoRead(remote.value());
        got[1] = r2.ok() ? r2.value().bytes : 0;
    });
    EXPECT_EQ(got[0], 256u);
    EXPECT_EQ(got[1], 64u);
    const std::vector<std::string> expected = {
        "#3 hw.link<nipc.transfer @17881+2671 pu=1 arg=304",
        "#2 nipc.transfer<xpu.xfifoWrite @17881+2671 pu=1 arg=304",
        "#5 hw.link<nipc.transfer @21852+2447 pu=0 arg=16",
        "#4 nipc.transfer<xpu.xfifoWrite @21852+2447 pu=0 arg=16",
        "#1 xpu.xfifoWrite<pin @0+29499 pu=1 arg=256",
        "#6 xpu.xfifoRead<pin @29499+17252 pu=0 arg=0",
        "#7 xpu.xfifoWrite<pin @46751+16580 pu=0 arg=64",
        "#10 hw.link<nipc.transfer @74556+2554 pu=1 arg=48",
        "#9 nipc.transfer<xpu.xfifoRead @74556+2554 pu=1 arg=48",
        "#12 hw.link<nipc.transfer @78410+2446 pu=0 arg=80",
        "#11 nipc.transfer<xpu.xfifoRead @78410+2446 pu=0 arg=80",
        "#8 xpu.xfifoRead<pin @63331+24389 pu=1 arg=0",
        "#0 pin<- @0+87720 pu=0 arg=0",
    };
    EXPECT_EQ(lines, expected);
    if (lines != expected)
        dump(lines);
    // One handled call per shim a call passes through.
    EXPECT_EQ(cpuShim->xpucallCount() - cpuCalls, 4);
    EXPECT_EQ(dpu1Shim->xpucallCount() - dpuCalls, 2);
}

TEST_F(ShimTraceFixture, FifoInitSyncsTwoPeersSpanTree)
{
    FdOutcome fd = pending<XpuFd>();
    core::Status st;
    auto lines = traced([&]() -> Task<> {
        FdOutcome r = co_await cpuClient->xfifoInit("pin/init");
        fd = r;
        if (!r.ok())
            co_return;
        st = co_await cpuClient->grantCap(
            dpu1Client->xpuPid(), cpuClient->objectOf(r.value()),
            Perm::Write);
    });
    ASSERT_TRUE(fd.ok());
    EXPECT_TRUE(st.ok());
    const std::vector<std::string> expected = {
        "#4 hw.link<nipc.transfer @10860+2487 pu=0 arg=56",
        "#3 nipc.transfer<xpu.sync @10860+2487 pu=0 arg=56",
        "#6 hw.link<nipc.transfer @10860+2551 pu=0 arg=56",
        "#5 nipc.transfer<xpu.sync @10860+2551 pu=0 arg=56",
        "#8 hw.link<nipc.transfer @26347+2497 pu=1 arg=16",
        "#7 nipc.transfer<xpu.sync @26347+2497 pu=1 arg=16",
        "#10 hw.link<nipc.transfer @26411+2489 pu=2 arg=16",
        "#9 nipc.transfer<xpu.sync @26411+2489 pu=2 arg=16",
        "#2 xpu.sync<xpu.xfifoInit @8860+20040 pu=0 arg=2",
        "#1 xpu.xfifoInit<pin @0+36364 pu=0 arg=0",
        "#14 hw.link<nipc.transfer @47192+2463 pu=0 arg=48",
        "#13 nipc.transfer<xpu.sync @47192+2463 pu=0 arg=48",
        "#16 hw.link<nipc.transfer @47192+2480 pu=0 arg=48",
        "#15 nipc.transfer<xpu.sync @47192+2480 pu=0 arg=48",
        "#18 hw.link<nipc.transfer @62655+2381 pu=1 arg=16",
        "#17 nipc.transfer<xpu.sync @62655+2381 pu=1 arg=16",
        "#20 hw.link<nipc.transfer @62672+2408 pu=2 arg=16",
        "#19 nipc.transfer<xpu.sync @62672+2408 pu=2 arg=16",
        "#12 xpu.sync<xpu.grantCap @45192+19888 pu=0 arg=2",
        "#11 xpu.grantCap<pin @36364+36148 pu=0 arg=0",
        "#0 pin<- @0+72512 pu=0 arg=0",
    };
    EXPECT_EQ(lines, expected);
    if (lines != expected)
        dump(lines);
    EXPECT_EQ(cpuShim->syncMessagesSent(), 4);
    EXPECT_EQ(cpuShim->xpucallCount(), 2);
}

TEST_F(ShimTraceFixture, OwnerCloseFlushesEighthReclamation)
{
    // Seven reclamations wait in the CPU shim's lazy queue; the eighth
    // close flushes the batch to both peers.
    std::vector<XpuFd> fds;
    for (int i = 0; i < 8; ++i) {
        FdOutcome fd = pending<XpuFd>();
        sim.spawn(initFifo(*cpuClient, "pin/close" + std::to_string(i),
                           &fd));
        sim.run();
        ASSERT_TRUE(fd.ok());
        fds.push_back(fd.value());
    }
    auto closeIt = [](XpuClient &c, XpuFd fd,
                      core::Status *out) -> Task<> {
        *out = co_await c.xfifoClose(fd);
    };
    for (int i = 0; i < 7; ++i) {
        core::Status st;
        sim.spawn(closeIt(*cpuClient, fds[std::size_t(i)], &st));
        sim.run();
        ASSERT_TRUE(st.ok());
    }
    ASSERT_EQ(cpuShim->lazyQueueDepth(), 7u);
    ASSERT_NE(dpu2Shim->caps().findByUuid("pin/close0"), nullptr);
    const std::int64_t syncsBefore = cpuShim->syncMessagesSent();

    core::Status st;
    auto lines = traced([&]() -> Task<> {
        st = co_await cpuClient->xfifoClose(fds.back());
    });
    EXPECT_TRUE(st.ok());
    const std::vector<std::string> expected = {
        "#1 xpu.xfifoClose<pin @0+231367 pu=0 arg=0",
        "#0 pin<- @0+231367 pu=0 arg=0",
    };
    EXPECT_EQ(lines, expected);
    if (lines != expected)
        dump(lines);
    EXPECT_EQ(cpuShim->lazyQueueDepth(), 0u);
    EXPECT_EQ(cpuShim->syncMessagesSent() - syncsBefore, 2);
    EXPECT_EQ(dpu1Shim->caps().findByUuid("pin/close7"), nullptr);
    EXPECT_EQ(dpu2Shim->caps().findByUuid("pin/close0"), nullptr);
    EXPECT_EQ(cpuShim->homedFifoCount(), 0u);
}

} // namespace
