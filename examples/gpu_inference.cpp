/**
 * @file
 * GNN-style GPU serverless functions (the paper's §2.4 motivation:
 * Dorylus-class workloads want accelerators plus low-latency, frequent
 * invocations). A CUDA kernel function runs through runG behind the
 * same Molecule API as CPU and FPGA functions: the first call pays
 * MPS-context + module-load, every later call dispatches in
 * microseconds, and many modules stay resident concurrently.
 */

#include <cstdio>

#include "core/molecule.hh"
#include "hw/computer.hh"

int
main()
{
    using namespace molecule;
    using namespace molecule::sim::literals;

    sim::Simulation sim;
    auto computer = hw::buildFullHetero(sim); // CPU + 2 DPU + FPGA + GPU
    core::Molecule runtime(*computer, core::MoleculeOptions{});

    // Two stages of a GNN training step and a standalone embedding
    // lookup, all CUDA kernels.
    runtime.registerGpuFunction("gnn-gather", 3_ms, 8 << 20);
    runtime.registerGpuFunction("gnn-apply", 5_ms, 4 << 20);
    runtime.registerGpuFunction("embed-lookup", 400_us, 1 << 20);
    runtime.start();

    std::printf("%-14s %-6s %-12s %-12s %s\n", "function", "cold?",
                "startup", "exec", "e2e");
    for (const char *fn : {"gnn-gather", "gnn-apply", "embed-lookup"}) {
        auto rec = runtime.runSync(runtime.invoke(fn)).value();
        std::printf("%-14s %-6s %-12s %-12s %s\n", fn,
                    rec.coldStart ? "yes" : "no",
                    rec.startup.toString().c_str(),
                    rec.execution.toString().c_str(),
                    rec.endToEnd.toString().c_str());
    }

    // Steady state: every module resident, dispatch is launch-only.
    std::printf("\nsteady-state invocations (all warm):\n");
    for (int i = 0; i < 3; ++i) {
        auto rec = runtime.runSync(runtime.invoke("embed-lookup")).value();
        std::printf("  embed-lookup e2e=%s\n",
                    rec.endToEnd.toString().c_str());
    }
    std::printf("\n%zu modules resident on the GPU (MPS sharing, "
                "Table 5 generality row)\n",
                computer->gpuDev(0).residentCount());
    return 0;
}
