/** @file End-to-end tests for the Molecule runtime facade. */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "obs/trace.hh"

namespace {

using molecule::core::ChainSpec;
using molecule::core::DagCommMode;
using molecule::core::Errc;
using molecule::core::InvokeOptions;
using molecule::core::Molecule;
using molecule::core::MoleculeOptions;
using molecule::hw::buildCpuDpuServer;
using molecule::hw::buildF1Server;
using molecule::hw::Computer;
using molecule::hw::DpuGeneration;
using molecule::hw::PuType;
using molecule::sim::SimTime;
using molecule::sim::Simulation;
using molecule::workloads::Catalog;

struct MoleculeFixture : ::testing::Test
{
    Simulation sim;
    std::unique_ptr<Computer> computer =
        buildCpuDpuServer(sim, 2, DpuGeneration::Bf1);
    std::unique_ptr<Molecule> runtime;

    void
    makeRuntime(MoleculeOptions options)
    {
        runtime = std::make_unique<Molecule>(*computer, options);
        runtime->registerCpuFunction("helloworld",
                                     {PuType::HostCpu, PuType::Dpu});
        runtime->registerCpuFunction("image-resize",
                                     {PuType::HostCpu, PuType::Dpu});
        for (const auto &fn : Catalog::alexaChain())
            runtime->registerCpuFunction(fn,
                                         {PuType::HostCpu, PuType::Dpu});
        runtime->start();
    }
};

TEST_F(MoleculeFixture, ColdThenWarmInvocation)
{
    makeRuntime(MoleculeOptions{});
    auto cold =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_TRUE(cold.coldStart);
    // cfork on the host CPU: low double-digit milliseconds.
    EXPECT_GT(cold.startup.toMilliseconds(), 5.0);
    EXPECT_LT(cold.startup.toMilliseconds(), 25.0);

    auto warm =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 0.1);
    EXPECT_LT(warm.endToEnd, cold.endToEnd);
    EXPECT_EQ(runtime->startup().warmHits(), 1);
}

TEST_F(MoleculeFixture, HomoBaselineColdStartIsSlower)
{
    makeRuntime(MoleculeOptions::homo());
    auto cold =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_TRUE(cold.coldStart);
    // Full container + interpreter boot: >100 ms on the server CPU.
    EXPECT_GT(cold.startup.toMilliseconds(), 100.0);
}

TEST_F(MoleculeFixture, CforkIsRoughly10xOverBaseline)
{
    makeRuntime(MoleculeOptions{});
    auto mol =
        runtime->runSync(runtime->invoke("image-resize", {.pu = 0})).value();

    Simulation sim2;
    auto computer2 = buildCpuDpuServer(sim2, 2, DpuGeneration::Bf1);
    Molecule homo(*computer2, MoleculeOptions::homo());
    homo.registerCpuFunction("image-resize",
                             {PuType::HostCpu, PuType::Dpu});
    homo.start();
    auto base = homo.runSync(homo.invoke("image-resize", {.pu = 0})).value();

    EXPECT_GT(base.startup.toMilliseconds() /
                  mol.startup.toMilliseconds(),
              8.0);
}

TEST_F(MoleculeFixture, RemoteStartAddsSmallNipcCost)
{
    makeRuntime(MoleculeOptions{});
    // Same function cold-started locally vs on the DPU: the remote
    // path adds the executor command round-trip (~1-3 ms at DPU
    // speed), on top of the DPU's slower cfork.
    auto local =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).value();
    auto remote =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).value();
    EXPECT_TRUE(remote.coldStart);
    EXPECT_GT(remote.startup, local.startup);
    // DPU cfork ~= 6.5x the CPU one + a few ms of command round-trip.
    EXPECT_LT(remote.startup.toMilliseconds(),
              local.startup.toMilliseconds() * 6.5 + 9.0);
}

TEST_F(MoleculeFixture, SchedulerPrefersCheaperDpu)
{
    makeRuntime(MoleculeOptions{});
    auto rec = runtime->runSync(runtime->invoke("helloworld")).value();
    // DPU profiles are priced lower, so the scheduler picks a DPU.
    EXPECT_EQ(computer->pu(rec.pu).type(), PuType::Dpu);
}

TEST_F(MoleculeFixture, UnknownNameIsATypedNotFound)
{
    makeRuntime(MoleculeOptions{});
    auto out = runtime->runSync(runtime->invoke("no-such-function"));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code(), Errc::NotFound);
}

TEST_F(MoleculeFixture, ChainRunsOnSinglePuByAffinity)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    auto rec = runtime->runSync(runtime->invokeChain(spec)).value();
    ASSERT_EQ(rec.invocations.size(), 5u);
    const int pu0 = rec.invocations[0].pu;
    for (const auto &inv : rec.invocations)
        EXPECT_EQ(inv.pu, pu0);
    EXPECT_EQ(rec.edgeLatencies.size(), 4u);
}

TEST_F(MoleculeFixture, IpcChainBeatsHttpChain)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> onCpu(5, 0);
    auto ipc = runtime->runSync(runtime->invokeChain(spec, onCpu)).value();

    Simulation sim2;
    auto computer2 = buildCpuDpuServer(sim2, 2, DpuGeneration::Bf1);
    Molecule homo(*computer2, MoleculeOptions::homo());
    for (const auto &fn : Catalog::alexaChain())
        homo.registerCpuFunction(fn, {PuType::HostCpu});
    homo.start();
    auto http = homo.runSync(homo.invokeChain(spec, onCpu)).value();

    // Fig 14-e: 2.04-2.47x less end-to-end latency for Alexa.
    const double ratio = http.endToEnd.toMilliseconds() /
                         ipc.endToEnd.toMilliseconds();
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.9);
    // Fig 12-a: per-edge 15-18x faster with IPC on the same PU.
    for (std::size_t i = 0; i < 4; ++i) {
        const double edgeRatio =
            http.edgeLatencies[i].toMilliseconds() /
            ipc.edgeLatencies[i].toMilliseconds();
        EXPECT_GT(edgeRatio, 10.0);
        EXPECT_LT(edgeRatio, 25.0);
    }
}

TEST_F(MoleculeFixture, CrossPuChainUsesNipc)
{
    makeRuntime(MoleculeOptions{});
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    // Alternate CPU/DPU so every edge crosses PUs (Fig 14-e CrossPU).
    std::vector<int> cross{0, 1, 0, 1, 0};
    auto rec = runtime->runSync(runtime->invokeChain(spec, cross)).value();
    ASSERT_EQ(rec.edgeLatencies.size(), 4u);
    for (const auto &edge : rec.edgeLatencies) {
        // nIPC edges stay sub-millisecond (Fig 12-c/d Molecule bars).
        EXPECT_LT(edge.toMilliseconds(), 1.2);
        EXPECT_GT(edge.toMilliseconds(), 0.1);
    }
}

TEST_F(MoleculeFixture, KeepAliveCachesAndEvicts)
{
    MoleculeOptions options;
    options.startup.warmCapacity = 2;
    makeRuntime(options);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(
            runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).ok());
    EXPECT_LE(runtime->startup().warmCount("helloworld", 0), 2u);
    EXPECT_EQ(runtime->startup().coldStarts(), 1);
}

TEST_F(MoleculeFixture, ColdStartPastDeadlineIsNotRetriedAndParks)
{
    makeRuntime(MoleculeOptions{});
    InvokeOptions opts;
    opts.pu = 0;
    opts.maxAttempts = 3;
    // A cfork cold start on the host takes milliseconds.
    opts.deadline = SimTime::microseconds(100);
    auto r = runtime->runSync(runtime->invoke("helloworld", opts));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::DeadlineExceeded);
    EXPECT_EQ(r.error().pu(), 0);
    EXPECT_EQ(r.error().retries(), 0);
    EXPECT_TRUE(r.error().causes().empty());
    EXPECT_EQ(r.error().pusTried(), std::vector<int>{0});
    EXPECT_EQ(runtime->startup().coldStarts(), 1);
    // The instance the late start produced is parked, not lost.
    EXPECT_EQ(runtime->startup().warmCount("helloworld", 0), 1u);
    EXPECT_EQ(runtime->scheduler().outstanding(0), 0);

    auto warm =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 0})).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_EQ(runtime->startup().coldStarts(), 1);
    EXPECT_EQ(runtime->startup().warmHits(), 1);
    EXPECT_EQ(runtime->scheduler().outstanding(0), 0);
}

TEST_F(MoleculeFixture, RemoteDeadlineExpiresBeforeExecution)
{
    makeRuntime(MoleculeOptions{});
    ASSERT_TRUE(
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).ok());
    ASSERT_EQ(runtime->startup().warmCount("helloworld", 1), 1u);

    // A warm hit starts inside the budget; the manager->DPU delivery
    // then overruns it, so execution never begins.
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    opts.deadline = SimTime::nanoseconds(1);
    auto r = runtime->runSync(runtime->invoke("helloworld", opts));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), Errc::DeadlineExceeded);
    EXPECT_EQ(r.error().pu(), 1);
    EXPECT_NE(r.error().detail().find("before execution"),
              std::string::npos);
    EXPECT_EQ(r.error().retries(), 0);
    EXPECT_EQ(runtime->startup().warmHits(), 1);
    EXPECT_EQ(runtime->startup().warmCount("helloworld", 1), 1u);
    EXPECT_EQ(runtime->scheduler().outstanding(1), 0);

    auto again =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).value();
    EXPECT_FALSE(again.coldStart);
    EXPECT_EQ(runtime->startup().coldStarts(), 1);
}

/** One finished span as "#id name<parent @start+len pu=P arg=A",
 * with ids and times (ns) relative to the root span's. */
std::string
spanLine(const molecule::obs::SpanBuffer &spans, std::size_t i,
         const molecule::obs::SpanRecord &root, bool withDetail = false)
{
    const auto &r = spans[i];
    std::string parent = "-";
    for (std::size_t j = 0; j < spans.size(); ++j)
        if (r.parentId != 0 && spans[j].spanId == r.parentId)
            parent = spans[j].name;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "#%d %s<%s @%lld+%lld pu=%d arg=%lld",
                  int(r.spanId - root.spanId), r.name, parent.c_str(),
                  static_cast<long long>(r.start - root.start),
                  static_cast<long long>(r.end - r.start), int(r.pu),
                  static_cast<long long>(r.arg));
    std::string line = buf;
    if (withDetail && r.detail[0] != '\0')
        line += std::string(" \"") + r.detail + "\"";
    return line;
}

TEST_F(MoleculeFixture, RemoteWarmInvocationSpanTree)
{
    molecule::obs::Tracer tracer(sim);
    MoleculeOptions options;
    options.tracer = &tracer;
    makeRuntime(options);
    ASSERT_TRUE(
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).ok());
    tracer.clear();

    auto rec =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).value();
    ASSERT_FALSE(rec.coldStart);
    const auto &spans = tracer.records();
    ASSERT_EQ(spans.size(), 10u);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < spans.size(); ++i)
        lines.push_back(spanLine(spans, i, spans.back()));
    // Open order (ids), finish order, parents and sim-time intervals
    // are all pinned.
    const std::vector<std::string> expected = {
        "#2 sched.place<invoke @0+0 pu=0 arg=1",
        "#1 gateway.admit<invoke @0+0 pu=0 arg=0",
        "#3 startup<invoke @0+0 pu=1 arg=0",
        "#6 hw.link<nipc.transfer @0+2444 pu=0 arg=256",
        "#5 nipc.transfer<comm @0+2444 pu=0 arg=256",
        "#7 os.dispatch<comm @2444+462000 pu=1 arg=0",
        "#4 comm<invoke @0+464444 pu=1 arg=0",
        "#9 hw.compute<sandbox.exec @464444+2400000 pu=1 arg=0",
        "#8 sandbox.exec<invoke @464444+2400000 pu=1 arg=0",
        "#0 invoke<- @0+2864444 pu=0 arg=0",
    };
    EXPECT_EQ(lines, expected);
    // Every span belongs to the invocation's trace; ids are unique.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].traceId, rec.traceId);
        for (std::size_t j = i + 1; j < spans.size(); ++j)
            EXPECT_NE(spans[i].spanId, spans[j].spanId);
    }
    EXPECT_EQ(spans.back().end - spans.back().start, rec.endToEnd.raw());
}

TEST_F(MoleculeFixture, RemoteColdInvocationSpanTree)
{
    molecule::obs::Tracer tracer(sim);
    MoleculeOptions options;
    options.tracer = &tracer;
    // Every release evicts, so every request cold-starts.
    options.startup.warmCapacity = 0;
    options.startup.pooledContainersPerPu = 1;
    makeRuntime(options);
    // The first cold start on PU 1 takes its one pooled container.
    ASSERT_TRUE(
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).ok());
    auto &runc = runtime->deployment().runcOn(1);
    auto &os = runc.localOs();
    ASSERT_EQ(runc.pooledContainers(), 0u);
    ASSERT_EQ(runc.instanceCount(), 0u);
    const std::size_t containers = os.containers().containerCount();
    const std::size_t procs = os.processCount();
    const std::uint64_t memory = os.physicalUsed();
    ASSERT_EQ(runtime->startup().evictions(), 1);
    tracer.clear();

    const SimTime t0 = sim.now();
    auto rec =
        runtime->runSync(runtime->invoke("helloworld", {.pu = 1})).value();
    ASSERT_TRUE(rec.coldStart);
    const auto &spans = tracer.records();
    ASSERT_EQ(spans.size(), 23u);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < spans.size(); ++i)
        lines.push_back(spanLine(spans, i, spans.back(), true));
    // Open order (ids), finish order, parents, sim-time intervals,
    // PUs, args and details are all pinned.
    const std::vector<std::string> expected = {
        "#2 sched.place<invoke @0+0 pu=0 arg=1",
        "#1 gateway.admit<invoke @0+0 pu=0 arg=0",
        "#6 hw.link<nipc.transfer @0+2430 pu=0 arg=160",
        "#5 nipc.transfer<nipc.cmd-rtt @0+2430 pu=0 arg=160",
        "#8 hw.link<nipc.transfer @7152430+2631 pu=1 arg=64",
        "#7 nipc.transfer<nipc.cmd-rtt @7152430+2631 pu=1 arg=64",
        "#4 nipc.cmd-rtt<startup @0+7155061 pu=0 arg=0",
        "#10 cfork.thread-merge<sandbox.cfork @7155061+3900000 pu=1 arg=0",
        "#11 os.fork<sandbox.cfork @11055061+6500000 pu=1 arg=0 "
        "\"helloworld#1\"",
        "#12 cfork.container<sandbox.cfork @17555061+159714282 pu=1 arg=0",
        "#13 os.attach<sandbox.cfork @177269343+45964282 pu=1 arg=0",
        "#14 cfork.expand-load<sandbox.cfork @223233625+34914282 pu=1 "
        "arg=0",
        "#9 sandbox.cfork<startup @7155061+250992846 pu=1 arg=0 "
        "\"helloworld\"",
        "#15 sandbox.start<startup @258147907+7800 pu=1 arg=0",
        "#3 startup<invoke @0+258155707 pu=1 arg=0",
        "#18 hw.link<nipc.transfer @258155707+2485 pu=0 arg=256",
        "#17 nipc.transfer<comm @258155707+2485 pu=0 arg=256",
        "#19 os.dispatch<comm @258158192+462000 pu=1 arg=0",
        "#16 comm<invoke @258155707+464485 pu=1 arg=0",
        "#21 sandbox.cow-settle<sandbox.exec @258620192+245700 pu=1 "
        "arg=21",
        "#22 hw.compute<sandbox.exec @258865892+2400000 pu=1 arg=0",
        "#20 sandbox.exec<invoke @258620192+2645700 pu=1 arg=0",
        "#0 invoke<- @0+261265892 pu=0 arg=0 \"helloworld\"",
    };
    EXPECT_EQ(lines, expected);
    for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i].traceId, rec.traceId);
    EXPECT_EQ(spans.back().end - spans.back().start, rec.endToEnd.raw());

    // The eviction after the root span closes: the instance, its
    // process, container and memory are gone, and it took the
    // container delete's sim time.
    EXPECT_EQ(runtime->startup().evictions(), 2);
    EXPECT_EQ(runc.instanceCount(), 0u);
    EXPECT_EQ(os.containers().containerCount(), containers);
    EXPECT_EQ(os.processCount(), procs);
    EXPECT_EQ(os.physicalUsed(), memory);
    EXPECT_EQ((sim.now() - t0).raw() - rec.endToEnd.raw(), 58500000);
    EXPECT_EQ(runtime->startup().evictionDigest(),
              6587347890043281696ULL);
}

TEST(MoleculeFpga, InvokeColdAndWarm)
{
    Simulation sim;
    auto computer = buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.registerFpgaFunction("fpga-madd");
    runtime.start();

    auto cold = runtime.runSync(runtime.invoke("fpga-vmult")).value();
    EXPECT_TRUE(cold.coldStart);
    // Cold FPGA start: program + sandbox prep, seconds.
    EXPECT_GT(cold.startup.toSeconds(), 1.0);

    auto warm = runtime.runSync(runtime.invoke("fpga-vmult")).value();
    EXPECT_FALSE(warm.coldStart);
    EXPECT_LT(warm.startup.toMilliseconds(), 1.0);
    // Warm execution ~= kernel + invoke overheads.
    EXPECT_NEAR(warm.execution.toMicroseconds(), 1218.0 + 38.0, 30.0);
}

TEST(MoleculeFpga, HotSetKeepsSiblingsCached)
{
    Simulation sim;
    auto computer = buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.registerFpgaFunction("fpga-madd");
    runtime.registerFpgaFunction("fpga-mscale");
    runtime.start();

    runtime.startup().setFpgaHotSet(
        0, {"fpga-vmult", "fpga-madd", "fpga-mscale"});
    auto first = runtime.runSync(runtime.invoke("fpga-vmult")).value();
    EXPECT_TRUE(first.coldStart);
    // Siblings were packed into the same image: warm for them too.
    auto second = runtime.runSync(runtime.invoke("fpga-madd")).value();
    EXPECT_FALSE(second.coldStart);
    auto third = runtime.runSync(runtime.invoke("fpga-mscale")).value();
    EXPECT_FALSE(third.coldStart);
    EXPECT_EQ(computer->fpga(0).programCount(), 1);
}

} // namespace
