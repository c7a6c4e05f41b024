/**
 * @file
 * Figure 14-g: Anti-MoneyL (anti-money-laundering checking), CPU vs
 * FPGA over transaction-entry counts from 6 K to 6 M. Transaction
 * files are staged into the FPGA DRAM bank (data retention) ahead of
 * the invocation, as the chain design of §4.3 enables.
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::Molecule;
using core::MoleculeOptions;

sim::SimTime
cpuAml(std::uint64_t entries)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    workloads::Catalog catalog;
    const auto &w = catalog.fpga("fpga-aml");
    auto run = [](hw::ProcessingUnit *pu, sim::SimTime cost)
        -> sim::Task<> { co_await pu->compute(cost); };
    sim.spawn(run(&computer->pu(0), w.cpuTime(entries)));
    sim.run();
    return sim.now();
}

sim::SimTime
fpgaAml(std::uint64_t entries)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-aml");
    runtime.start();
    (void)runtime.runSync(runtime.invoke("fpga-aml"));
    return runtime.runSync(runtime.invoke("fpga-aml", {.units = entries}))
        .value()
        .execution;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 14-g: Anti-MoneyL FPGA function",
           "paper: FPGA 4.7-34.6x better from 6K to 6M entries");

    Table t("Figure 14-g: Anti-MoneyL latency (ms) vs entries");
    t.header({"entries", "CPU", "FPGA", "FPGA speedup"});
    for (std::uint64_t entries :
         {6000ULL, 60000ULL, 600000ULL, 6000000ULL}) {
        const auto cpu = cpuAml(entries);
        const auto fpga = fpgaAml(entries);
        std::string label = entries >= 1000000
                                ? std::to_string(entries / 1000000) + "M"
                                : std::to_string(entries / 1000) + "K";
        t.row({label, ms(cpu), ms(fpga),
               Table::num(cpu.toMilliseconds() / fpga.toMilliseconds(),
                          1) +
                   "x"});
    }
    t.print();
    return 0;
}
