/**
 * @file
 * Figure 14-e: chained applications (Alexa, MapReduce) end-to-end
 * latency across CPU, DPU and CrossPU placements, baseline vs
 * Molecule. Instances are pre-booted (§6.6) so the numbers isolate
 * communication + execution.
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

sim::SimTime
chainE2e(bool moleculeMode, const std::vector<std::string> &fns,
         const std::vector<int> &placement)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options =
        moleculeMode ? MoleculeOptions{} : MoleculeOptions::homo();
    Molecule runtime(*computer, options);
    for (const auto &fn : fns)
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    auto spec = ChainSpec::linear(fns.front(), fns);
    return runtime.runSync(runtime.invokeChain(spec, placement))
        .value()
        .endToEnd;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 14-e: chained applications",
           "paper: Alexa 2.04-2.47x less e2e latency, MapReduce "
           "3.70-4.47x; labels 38.6 ms / 20.0 ms (baseline CPU)");

    struct App
    {
        const char *name;
        std::vector<std::string> fns;
    };
    const std::vector<App> apps{{"Alexa", Catalog::alexaChain()},
                                {"MapReduce", Catalog::mapReduceChain()}};

    for (const auto &app : apps) {
        const auto n = app.fns.size();
        const std::vector<int> onCpu(n, 0);
        const std::vector<int> onDpu(n, 1);
        std::vector<int> cross;
        for (std::size_t i = 0; i < n; ++i)
            cross.push_back(i % 2 == 0 ? 0 : 1);

        Table t(std::string("Figure 14-e: ") + app.name + " (ms)");
        t.header({"placement", "Baseline", "Molecule", "speedup"});
        struct Row
        {
            const char *label;
            const std::vector<int> *placement;
        };
        const std::vector<Row> rows{{"CPU", &onCpu},
                                    {"DPU", &onDpu},
                                    {"CrossPU", &cross}};
        for (const auto &row : rows) {
            const auto base = chainE2e(false, app.fns, *row.placement);
            const auto mol = chainE2e(true, app.fns, *row.placement);
            t.row({row.label, ms(base), ms(mol),
                   Table::num(base.toMilliseconds() /
                                  mol.toMilliseconds(),
                              2) +
                       "x"});
        }
        t.print();
    }
    return 0;
}
