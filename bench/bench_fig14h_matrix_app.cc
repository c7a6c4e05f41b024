/**
 * @file
 * Figure 2-b and Figure 14-h: matrix computation on CPU vs FPGA.
 *
 * Fig 2-b: the three kernels (scaling, addition, multiplication)
 * individually; Fig 14-h: the matrix-computation application (the
 * three chained, operands staying in FPGA DRAM between stages).
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::Molecule;
using core::MoleculeOptions;
using workloads::Catalog;

sim::SimTime
cpuKernel(const std::string &name)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    workloads::Catalog catalog;
    const auto &w = catalog.fpga(name);
    auto run = [](hw::ProcessingUnit *pu, sim::SimTime cost)
        -> sim::Task<> { co_await pu->compute(cost); };
    sim.spawn(run(&computer->pu(0), w.cpuTime(1)));
    sim.run();
    return sim.now();
}

struct F1Runtime
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer = hw::buildF1Server(sim, 1);
    Molecule runtime{*computer, MoleculeOptions{}};

    F1Runtime()
    {
        for (const auto &fn : Catalog::matrixKernels())
            runtime.registerFpgaFunction(fn);
        runtime.start();
        runtime.startup().setFpgaHotSet(0, Catalog::matrixKernels());
    }

    sim::SimTime
    warmKernel(const std::string &name)
    {
        (void)runtime.runSync(runtime.invoke(name)); // warm
        return runtime.runSync(runtime.invoke(name)).value().execution;
    }

    sim::SimTime
    chain(bool shm)
    {
        obs::ChainRecord rec;
        auto run = [](Molecule *m, bool s,
                      obs::ChainRecord *out) -> sim::Task<> {
            *out = co_await m->dag().runFpgaChain(
                Catalog::matrixKernels(), 0, s, 4096);
        };
        runtime.simulation().spawn(run(&runtime, shm, &rec));
        runtime.simulation().run();
        return rec.endToEnd;
    }
};

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 2-b / Figure 14-h: matrix computation on FPGA",
           "paper: kernels 2.15-2.82x faster on FPGA; the chained app "
           "2.8x (label 2.6 ms)");

    F1Runtime f1;
    Table a("Figure 2-b: matrix kernels (us)");
    a.header({"kernel", "CPU function", "FPGA function", "speedup"});
    struct K
    {
        const char *label;
        const char *name;
    };
    const std::vector<K> kernels{{"Matrix Scaling", "fpga-mscale"},
                                 {"Matrix Add", "fpga-madd"},
                                 {"Vector Multi", "fpga-vmult"}};
    for (const auto &k : kernels) {
        const auto cpu = cpuKernel(k.name);
        const auto fpga = f1.warmKernel(k.name);
        a.row({k.label, us(cpu), us(fpga),
               Table::num(cpu.toMicroseconds() / fpga.toMicroseconds(),
                          2) +
                   "x"});
    }
    a.print();

    Table b("Figure 14-h: Matrix-Comput application (ms)");
    b.header({"system", "latency"});
    sim::SimTime cpuChain(0);
    for (const auto &k : kernels)
        cpuChain += cpuKernel(k.name);
    const auto fpgaChain = f1.chain(true);
    b.row({"CPU", ms(cpuChain)});
    b.row({"FPGA (chained, DRAM retention)", ms(fpgaChain)});
    b.row({"speedup", Table::num(cpuChain.toMilliseconds() /
                                     fpgaChain.toMilliseconds(),
                                 2) +
                          "x"});
    b.print();
    return 0;
}
