/**
 * @file
 * Figure 15: serverless system design space (§6.7).
 *
 * The paper positions systems on two axes: startup latency (Slow >1s,
 * Fast ~50ms, Extreme <=10ms) and communication (Network-slow,
 * IPC-fast, Thread/Language-extreme), for same-PU and cross-PU cases.
 * This bench *measures* where this repository's Molecule lands on both
 * axes and prints the populated chart; the other systems' placements
 * are the paper's (qualitative).
 */

#include <algorithm>

#include "bench/common.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;

struct Position
{
    sim::SimTime startup;     // cfork on the host CPU (helloworld)
    sim::SimTime samePuComm;  // IPC edge, CPU->CPU
    sim::SimTime crossPuComm; // nIPC edge, CPU->DPU
};

Position
measure(std::uint64_t seed)
{
    sim::Simulation sim(seed);
    auto computer = hw::buildCpuDpuServer(sim, 1,
                                          hw::DpuGeneration::Bf1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.registerCpuFunction("mr-splitter",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.registerCpuFunction("mr-mapper",
                                {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    Position p;
    p.startup = runtime.runSync(runtime.invoke("helloworld", {.pu = 0}))
                    .value()
                    .startup;

    auto spec = ChainSpec::linear("pair", {"mr-splitter", "mr-mapper"});
    std::vector<int> same{0, 0};
    p.samePuComm = runtime.runSync(runtime.invokeChain(spec, same))
                       .value()
                       .edgeLatencies[0];
    std::vector<int> cross{0, 1};
    p.crossPuComm =
        runtime.runSync(runtime.invokeChain(spec, cross))
            .value()
            .edgeLatencies[0];
    return p;
}

/**
 * The chart position over many seeds, evaluated in parallel: each
 * seed's full scenario is an independent simulation replica fanned
 * out on the SweepRunner. Returns the per-axis medians, so the chart
 * reflects the design-space point rather than one seed's jitter.
 */
Position
measureSweep(std::size_t seeds)
{
    sim::SweepRunner pool;
    auto points = pool.map<Position>(seeds, [](std::size_t i) {
        return measure(std::uint64_t(i) + 1);
    });
    auto median = [&](sim::SimTime Position::*axis) {
        std::vector<sim::SimTime> v;
        for (const auto &p : points)
            v.push_back(p.*axis);
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    return Position{median(&Position::startup),
                    median(&Position::samePuComm),
                    median(&Position::crossPuComm)};
}

const char *
startupClass(sim::SimTime t)
{
    if (t.toMilliseconds() > 1000)
        return "Slow (>1s)";
    if (t.toMilliseconds() > 20)
        return "Fast (~50ms)";
    return "Extreme (<=20ms)";
}

const char *
commClass(sim::SimTime t)
{
    if (t.toMilliseconds() > 2)
        return "Network (slow)";
    if (t.toMicroseconds() > 20)
        return "IPC (fast)";
    return "Thread/Language (extreme)";
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 15: serverless system design space",
           "Molecule: extreme startup (cfork) AND fast IPC comm, "
           "including cross-PU (nIPC) — the only system in that cell");

    // 32 seed replicas, fanned out across a thread pool; each chart
    // cell is the median over the sweep.
    const Position p = measureSweep(32);

    Table a("Figure 15-a: startup design (measured for this repo)");
    a.header({"system", "mechanism", "class"});
    a.row({"Docker / Kata / gVisor / FireCracker", "cold boot",
           "Slow (>1s)"});
    a.row({"SOCK / Replayable", "zygote / snapshot", "Fast (~50ms)"});
    a.row({"Catalyzer", "sfork (hypervisor)", "Extreme (<=10ms)"});
    a.row({"Molecule [measured " + ms(p.startup) + " ms]",
           "cfork (container)", startupClass(p.startup)});
    a.print();

    Table b("Figure 15-b: communication design (measured)");
    b.header({"scope", "system", "class"});
    b.row({"same-PU", "OpenWhisk", "Network (slow)"});
    b.row({"same-PU", "Nightcore", "IPC (fast)"});
    b.row({"same-PU", "Faastlane / Faasm", "Thread/Language (extreme)"});
    b.row({"same-PU",
           "Molecule [measured " + ms(p.samePuComm) + " ms]",
           commClass(p.samePuComm)});
    b.row({"cross-PU", "others", "Network (slow)"});
    b.row({"cross-PU",
           "Molecule nIPC [measured " + ms(p.crossPuComm) + " ms]",
           commClass(p.crossPuComm)});
    b.print();
    return 0;
}
