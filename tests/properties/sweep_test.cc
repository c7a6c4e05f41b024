/**
 * @file
 * Parameterized property sweeps (TEST_P) over the protocol space:
 * transports x message sizes, placements, DPU generations, chain
 * lengths and keep-alive policies. Each sweep asserts an invariant
 * that must hold at *every* point, not just the paper's samples.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "sim/sweep.hh"
#include "workloads/catalog.hh"
#include "xpu/client.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::DpuGeneration;
using hw::PuType;
using workloads::Catalog;
using xpu::TransportKind;

// CTest names each sweep case after its printed parameter. gtest's
// default printer dumps the raw object, uninitialised padding bytes
// included, so those names drifted from one build to the next. Each
// case below therefore carries a fixed ID -- the name it was first
// recorded under -- and PrintTo prints that ID.

// ---------------------------------------------------------------------
// Sweep 1: nIPC latency over transports x sizes. Invariants: Poll <=
// MPSC <= Base at every size; latency is monotone in message size.
// ---------------------------------------------------------------------

struct NipcCase
{
    TransportKind kind;
    std::uint64_t bytes;
    const char *id;
};

void
PrintTo(const NipcCase &c, std::ostream *os)
{
    *os << c.id;
}

class NipcSweep : public ::testing::TestWithParam<NipcCase>
{
  protected:
    /** Measured write latency for one (transport, size) point. */
    static sim::SimTime
    measure(TransportKind kind, std::uint64_t bytes)
    {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 1,
                                              DpuGeneration::Bf1);
        os::LocalOs cpuOs{computer->pu(0)};
        os::LocalOs dpuOs{computer->pu(1)};
        xpu::XpuShimNetwork net{*computer};
        auto *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
        auto *dpuShim = net.addShim(dpuOs, kind);
        (void)cpuShim;

        os::Process *reader = nullptr;
        os::Process *writer = nullptr;
        auto boot = [](os::LocalOs *a, os::LocalOs *b, os::Process **r,
                       os::Process **w) -> sim::Task<> {
            *r = co_await a->spawnProcess("r", 1 << 20);
            *w = co_await b->spawnProcess("w", 1 << 20);
        };
        sim.spawn(boot(&cpuOs, &dpuOs, &reader, &writer));
        sim.run();
        xpu::XpuClient rc(net.shimOn(0), *reader);
        xpu::XpuClient wc(*dpuShim, *writer);

        sim::SimTime out;
        auto run = [](xpu::XpuClient *r, xpu::XpuClient *w,
                      std::uint64_t sz, sim::Simulation *s,
                      sim::SimTime *lat) -> sim::Task<> {
            auto fd = co_await r->xfifoInit("sweep");
            (void)co_await r->grantCap(w->xpuPid(),
                                       r->objectOf(fd.value()),
                                       xpu::Perm::Write);
            auto wfd = co_await w->xfifoConnect("sweep");
            const auto t0 = s->now();
            (void)co_await w->xfifoWrite(wfd.value(), sz, "m");
            *lat = s->now() - t0;
        };
        sim.spawn(run(&rc, &wc, bytes, &sim, &out));
        sim.run();
        return out;
    }
};

TEST_P(NipcSweep, TransportOrderingHoldsEverywhere)
{
    const auto p = GetParam();
    const auto base = measure(TransportKind::Fifo, p.bytes);
    const auto mpsc = measure(TransportKind::Mpsc, p.bytes);
    const auto poll = measure(TransportKind::MpscPoll, p.bytes);
    EXPECT_LT(poll, mpsc);
    EXPECT_LT(mpsc, base);

    // Monotone in size (compare against a 4x smaller message).
    if (p.bytes >= 64) {
        const auto smaller = measure(p.kind, p.bytes / 4);
        EXPECT_LE(smaller, measure(p.kind, p.bytes));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, NipcSweep,
    ::testing::Values(
        NipcCase{TransportKind::Fifo, 16,
                 "16-byte object <00-00 00-00 00-00 00-00 "
                 "10-00 00-00 00-00 00-00>"},
        NipcCase{TransportKind::Fifo, 256,
                 "16-byte object <00-00 00-00 00-00 00-00 "
                 "00-01 00-00 00-00 00-00>"},
        NipcCase{TransportKind::Mpsc, 1024,
                 "16-byte object <01-00 00-00 03-1E 09-00 "
                 "00-04 00-00 00-00 00-00>"},
        NipcCase{TransportKind::MpscPoll, 2048,
                 "16-byte object <02-00 00-00 00-00 D0-CA "
                 "00-08 00-00 00-00 00-00>"},
        NipcCase{TransportKind::MpscPoll, 64,
                 "16-byte object <02-00 00-00 00-00 00-00 "
                 "40-00 00-00 00-00 00-00>"}));

// ---------------------------------------------------------------------
// Sweep 2: chains of every length x placement pattern. Invariants:
// Molecule IPC beats the HTTP baseline; end-to-end grows with length;
// every edge latency is positive.
// ---------------------------------------------------------------------

struct ChainCase
{
    int length;
    bool cross; // alternate CPU/DPU placement
    const char *id;
};

void
PrintTo(const ChainCase &c, std::ostream *os)
{
    *os << c.id;
}

class ChainSweep : public ::testing::TestWithParam<ChainCase>
{
  protected:
    static obs::ChainRecord
    run(bool moleculeMode, int length, bool cross)
    {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 1,
                                              DpuGeneration::Bf2);
        MoleculeOptions options = moleculeMode
                                      ? MoleculeOptions{}
                                      : MoleculeOptions::homo();
        Molecule runtime(*computer, options);
        auto fns = Catalog::alexaChain();
        for (const auto &fn : fns)
            runtime.registerCpuFunction(fn,
                                        {PuType::HostCpu, PuType::Dpu});
        runtime.start();
        std::vector<std::string> chain(fns.begin(),
                                       fns.begin() + length);
        std::vector<int> placement;
        for (int i = 0; i < length; ++i)
            placement.push_back(cross ? i % 2 : 0);
        auto spec = ChainSpec::linear("sweep", chain);
        return runtime.invokeChainSync(spec, placement).value();
    }
};

TEST_P(ChainSweep, IpcBeatsHttpAndEdgesArePositive)
{
    const auto p = GetParam();
    const auto mol = run(true, p.length, p.cross);
    const auto base = run(false, p.length, p.cross);
    EXPECT_LT(mol.endToEnd, base.endToEnd);
    ASSERT_EQ(mol.edgeLatencies.size(), std::size_t(p.length) - 1);
    for (const auto &edge : mol.edgeLatencies) {
        EXPECT_GT(edge.raw(), 0);
        EXPECT_LT(edge.toMilliseconds(), 2.0);
    }
    if (p.length >= 3) {
        const auto shorter = run(true, p.length - 1, p.cross);
        EXPECT_LT(shorter.endToEnd, mol.endToEnd);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainSweep,
                         ::testing::Values(
                             ChainCase{2, false,
                                       "8-byte object <02-00 00-00 "
                                       "00-00 00-00>"},
                             ChainCase{3, false,
                                       "8-byte object <03-00 00-00 "
                                       "00-56 00-00>"},
                             ChainCase{4, true,
                                       "8-byte object <04-00 00-00 "
                                       "01-56 00-00>"},
                             ChainCase{5, false,
                                       "8-byte object <05-00 00-00 "
                                       "00-7F 00-00>"},
                             ChainCase{5, true,
                                       "8-byte object <05-00 00-00 "
                                       "01-7F 00-00>"}));

// ---------------------------------------------------------------------
// Sweep 3: startup paths x PU generations. Invariant: each cfork
// optimization stage is at least as fast as the previous one, on
// every PU kind.
// ---------------------------------------------------------------------

class StartupSweep
    : public ::testing::TestWithParam<std::tuple<DpuGeneration, int>>
{
  protected:
    static sim::SimTime
    startup(DpuGeneration gen, int pu, sandbox::StartupPath path,
            bool cfork)
    {
        sim::Simulation sim;
        auto computer = hw::buildCpuDpuServer(sim, 1, gen);
        MoleculeOptions options;
        options.startup.useCfork = cfork;
        options.startup.cforkPath = path;
        options.managerPu = pu;
        Molecule runtime(*computer, options);
        runtime.registerCpuFunction("image-resize",
                                    {PuType::HostCpu, PuType::Dpu});
        runtime.start();
        return runtime.invokeSync("image-resize", pu).value().startup;
    }
};

TEST_P(StartupSweep, OptimizationLadderIsMonotone)
{
    const auto [gen, pu] = GetParam();
    using sandbox::StartupPath;
    const auto baseline =
        startup(gen, pu, StartupPath::ColdBoot, false);
    const auto naive = startup(gen, pu, StartupPath::CforkNaive, true);
    const auto func =
        startup(gen, pu, StartupPath::CforkFuncContainer, true);
    const auto opt =
        startup(gen, pu, StartupPath::CforkCpusetOpt, true);
    EXPECT_LT(naive, baseline);
    EXPECT_LT(func, naive);
    EXPECT_LT(opt, func);
}

INSTANTIATE_TEST_SUITE_P(
    Pus, StartupSweep,
    ::testing::Values(std::make_tuple(DpuGeneration::Bf1, 0),
                      std::make_tuple(DpuGeneration::Bf1, 1),
                      std::make_tuple(DpuGeneration::Bf2, 1)));

// ---------------------------------------------------------------------
// Sweep 4: FPGA chains over lengths x payloads. Invariant: zero-copy
// never loses to copying, and the saving grows with chain length.
// ---------------------------------------------------------------------

class FpgaChainSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
  protected:
    static sim::SimTime
    chain(int length, bool shm, std::uint64_t bytes)
    {
        sim::Simulation sim;
        auto computer = hw::buildF1Server(sim, 1);
        Molecule runtime(*computer, MoleculeOptions{});
        runtime.registerFpgaFunction("fpga-vecstage");
        runtime.start();
        std::vector<std::string> fns(std::size_t(length),
                                     "fpga-vecstage");
        obs::ChainRecord rec;
        auto run = [](Molecule *m, std::vector<std::string> c, bool s,
                      std::uint64_t b,
                      obs::ChainRecord *out) -> sim::Task<> {
            *out = co_await m->dag().runFpgaChain(c, 0, s, b);
        };
        runtime.simulation().spawn(run(&runtime, fns, shm, bytes, &rec));
        runtime.simulation().run();
        return rec.endToEnd;
    }
};

TEST_P(FpgaChainSweep, ZeroCopyNeverLoses)
{
    const auto [length, bytes] = GetParam();
    const auto copying = chain(length, false, bytes);
    const auto shm = chain(length, true, bytes);
    EXPECT_LE(shm, copying);
    if (length >= 2) {
        // The absolute saving is at least one DMA round per hop.
        const double savedUs =
            copying.toMicroseconds() - shm.toMicroseconds();
        EXPECT_GT(savedUs, 100.0 * (length - 1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    LengthsAndSizes, FpgaChainSweep,
    ::testing::Values(std::make_tuple(1, 4096ULL),
                      std::make_tuple(2, 4096ULL),
                      std::make_tuple(3, 65536ULL),
                      std::make_tuple(5, 4096ULL),
                      std::make_tuple(5, 1048576ULL)));

// ---------------------------------------------------------------------
// Sweep 5: the full transport x size grid, evaluated in parallel on
// the SweepRunner. Each grid point is an independent simulation
// replica, so a threaded sweep must (a) reproduce the serial results
// bit for bit and (b) satisfy the transport ordering at every point.
// ---------------------------------------------------------------------

TEST(ParallelSweep, NipcGridMatchesSerialBitForBit)
{
    struct Point
    {
        TransportKind kind;
        std::uint64_t bytes;
    };
    const TransportKind kinds[] = {TransportKind::Fifo,
                                   TransportKind::Mpsc,
                                   TransportKind::MpscPoll};
    const std::uint64_t sizes[] = {16, 64, 256, 1024, 4096};
    std::vector<Point> grid;
    for (auto k : kinds)
        for (auto b : sizes)
            grid.push_back({k, b});

    struct MeasureFixture : NipcSweep
    {
        using NipcSweep::measure;
    };
    std::vector<std::int64_t> serial;
    for (const auto &p : grid)
        serial.push_back(
            MeasureFixture::measure(p.kind, p.bytes).raw());

    sim::SweepRunner pool;
    auto threaded = pool.map<std::int64_t>(
        grid.size(), [&](std::size_t i) {
            return MeasureFixture::measure(grid[i].kind,
                                           grid[i].bytes)
                .raw();
        });
    EXPECT_EQ(serial, threaded);

    // Transport ordering (Poll < Mpsc < Fifo) at every grid size.
    const std::size_t n = std::size(sizes);
    for (std::size_t s = 0; s < n; ++s) {
        const auto fifo = threaded[0 * n + s];
        const auto mpsc = threaded[1 * n + s];
        const auto poll = threaded[2 * n + s];
        EXPECT_LT(poll, mpsc) << "size " << sizes[s];
        EXPECT_LT(mpsc, fifo) << "size " << sizes[s];
    }
}

} // namespace
