/**
 * @file
 * Figure 14-f: GZip, CPU function vs FPGA function over file sizes
 * from 1 KB to 112 MB (the Linux source tree of §6.6).
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;

/** CPU execution: the compression body occupies a host core. */
sim::SimTime
cpuGzip(std::uint64_t bytes)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    workloads::Catalog catalog;
    const auto &w = catalog.fpga("fpga-gzip");
    auto run = [](hw::ProcessingUnit *pu, sim::SimTime cost)
        -> sim::Task<> { co_await pu->compute(cost); };
    sim.spawn(run(&computer->pu(0), w.cpuTime(bytes)));
    sim.run();
    return sim.now();
}

/** Warm FPGA invocation (image resident, sandbox prepared). */
sim::SimTime
fpgaGzip(std::uint64_t bytes)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.start();
    (void)runtime.runSync(runtime.invoke("fpga-gzip")); // warm it up
    return runtime.runSync(runtime.invoke("fpga-gzip", {.units = bytes}))
        .value()
        .execution;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 14-f: GZip FPGA function",
           "paper: FPGA 4.8-8.3x better for files >25 MB; CPU wins "
           "small files");

    Table t("Figure 14-f: GZip latency (s) vs file size");
    t.header({"file size", "CPU", "FPGA", "FPGA speedup"});
    const std::uint64_t mib = 1 << 20;
    struct Size
    {
        const char *label;
        std::uint64_t bytes;
    };
    const std::vector<Size> sizes{
        {"1KB", 1024},        {"1MB", mib},
        {"5MB", 5 * mib},     {"25MB", 25 * mib},
        {"50MB", 50 * mib},   {"75MB", 75 * mib},
        {"112MB (linux src)", 112 * mib}};
    for (const auto &size : sizes) {
        const auto cpu = cpuGzip(size.bytes);
        const auto fpga = fpgaGzip(size.bytes);
        t.row({size.label, secs(cpu, 3), secs(fpga, 3),
               Table::num(cpu.toSeconds() / fpga.toSeconds(), 2) + "x"});
    }
    t.print();
    return 0;
}
