/**
 * @file
 * FPGA offload: a gzip function with both CPU and FPGA profiles.
 * Small files run on the CPU; big files go to the FPGA function,
 * whose kernel sits warm in a vectorized image alongside two matrix
 * kernels (one programming pass caches all three).
 */

#include <cstdio>

#include "core/molecule.hh"
#include "hw/computer.hh"

int
main()
{
    using namespace molecule;

    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 8); // AWS F1.x16large
    core::Molecule runtime(*computer, core::MoleculeOptions{});
    runtime.registerCpuFunction("gzip-compression",
                                {hw::PuType::HostCpu});
    runtime.registerFpgaFunction("fpga-gzip");
    runtime.registerFpgaFunction("fpga-madd");
    runtime.registerFpgaFunction("fpga-mscale");
    runtime.start();

    // Keep-alive decided these three are hot: one image holds all.
    runtime.startup().setFpgaHotSet(
        0, {"fpga-gzip", "fpga-madd", "fpga-mscale"});

    const std::uint64_t mib = 1 << 20;
    std::printf("%-10s %-12s %-12s %s\n", "file", "CPU est.",
                "FPGA e2e", "decision");
    for (std::uint64_t bytes : {mib, 10 * mib, 50 * mib, 112 * mib}) {
        const auto &work = runtime.catalog().fpga("fpga-gzip");
        const auto cpuEst = work.cpuTime(bytes);
        auto rec =
            runtime.runSync(runtime.invoke("fpga-gzip", {.units = bytes}))
                .value();
        const bool offload = rec.execution < cpuEst;
        std::printf("%3lluMB      %-12s %-12s %s%s\n",
                    (unsigned long long)(bytes / mib),
                    cpuEst.toString().c_str(),
                    rec.execution.toString().c_str(),
                    offload ? "FPGA" : "CPU",
                    rec.coldStart ? "  (paid one-time programming)"
                                  : "");
    }

    // The sibling kernels were cached by the same image: instant warm.
    auto madd = runtime.runSync(runtime.invoke("fpga-madd")).value();
    std::printf("\nfpga-madd piggybacked in the image: cold=%s "
                "startup=%s exec=%s\n",
                madd.coldStart ? "yes" : "no",
                madd.startup.toString().c_str(),
                madd.execution.toString().c_str());
    return 0;
}
