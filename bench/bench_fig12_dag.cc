/**
 * @file
 * Figure 12: serverless DAG communication latency (Alexa skills).
 *
 * Measures per-edge latency of the 4 Alexa edges (front->interact,
 * interact->smarthome, smarthome->door, smarthome->light) under four
 * placements: CPU->CPU, DPU->DPU, CPU->DPU and DPU->CPU, comparing the
 * baseline (Node Express HTTP) with Molecule (IPC / nIPC).
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::DagCommMode;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

/** Alexa DAG: front -> interact -> smarthome -> {door, light}. */
ChainSpec
alexaSpec()
{
    ChainSpec spec;
    spec.name = "alexa";
    auto fns = Catalog::alexaChain();
    spec.nodes.push_back(core::ChainNode{fns[0], -1});
    spec.nodes.push_back(core::ChainNode{fns[1], 0});
    spec.nodes.push_back(core::ChainNode{fns[2], 1});
    spec.nodes.push_back(core::ChainNode{fns[3], 2});
    spec.nodes.push_back(core::ChainNode{fns[4], 2});
    return spec;
}

/** Per-edge latencies for one mode and placement. */
std::vector<sim::SimTime>
edges(DagCommMode mode, const std::vector<int> &placement)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.dagMode = mode;
    if (mode == DagCommMode::BaselineHttp)
        options.startup.useCfork = false;
    Molecule runtime(*computer, options);
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    auto rec =
        runtime.runSync(runtime.invokeChain(alexaSpec(), placement)).value();
    return rec.edgeLatencies;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 12: serverless DAG communication latency",
           "paper: IPC 15-18x better than Express baseline; nIPC "
           "10-13x (cross-PU)");

    struct Case
    {
        const char *name;
        std::vector<int> placement;
    };
    // Placements: edge k goes from node k's PU to node k+1's (the
    // fan-out edges both leave smarthome).
    const std::vector<Case> cases{
        {"(a) CPU to CPU", {0, 0, 0, 0, 0}},
        {"(b) DPU to DPU", {1, 1, 1, 1, 1}},
        {"(c) CPU to DPU", {0, 1, 0, 1, 1}},
        {"(d) DPU to CPU", {1, 0, 1, 0, 0}},
    };
    const std::vector<std::string> edgeNames{
        "front-interact", "interact-smarthome", "smarthome-door",
        "smarthome-light"};

    for (const auto &c : cases) {
        auto base = edges(core::DagCommMode::BaselineHttp, c.placement);
        auto mol = edges(core::DagCommMode::MoleculeIpc, c.placement);
        Table t(std::string("Figure 12 ") + c.name + " (ms per edge)");
        t.header({"edge", "Baseline", "Molecule", "speedup"});
        for (std::size_t i = 0; i < edgeNames.size(); ++i) {
            t.row({edgeNames[i], ms(base[i]), ms(mol[i], 3),
                   Table::num(base[i].toMilliseconds() /
                                  mol[i].toMilliseconds(),
                              1) +
                       "x"});
        }
        t.print();
    }
    return 0;
}
