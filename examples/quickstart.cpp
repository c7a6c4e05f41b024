/**
 * @file
 * Quickstart: boot Molecule on a CPU+DPU machine, register a function
 * and invoke it cold and warm.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/molecule.hh"
#include "hw/computer.hh"

int
main()
{
    using namespace molecule;

    // 1. A heterogeneous computer: Xeon host + two BlueField-2 DPUs.
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf2);

    // 2. The Molecule runtime with default options (cfork startup,
    //    IPC/nIPC DAG communication).
    core::Molecule runtime(*computer, core::MoleculeOptions{});

    // 3. Register a function from the workload catalog. Profiles list
    //    the PU kinds it may run on; the DPU profile is cheaper, so
    //    the scheduler will prefer it.
    runtime.registerCpuFunction("image-resize",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});

    // 4. Boot: executors are xSpawn'ed onto every PU and cfork
    //    templates are prepared.
    runtime.start();

    // 5. Invoke. Outcomes are typed: runSync(invoke(...)) returns
    //    core::Expected<obs::InvocationRecord>, so a failure (e.g. an
    //    injected fault) surfaces as a core::Error instead of a crash.
    //    The first request cold-starts an instance via cfork; the
    //    second hits the keep-alive cache.
    auto outcome = runtime.runSync(runtime.invoke("image-resize"));
    if (!outcome.ok()) {
        std::fprintf(stderr, "invoke failed: %s\n",
                     outcome.error().toString().c_str());
        return 1;
    }
    auto cold = outcome.value();
    std::printf("cold : pu=%d (%s)  startup=%s  comm=%s  exec=%s  "
                "e2e=%s\n",
                cold.pu, hw::toString(computer->pu(cold.pu).type()),
                cold.startup.toString().c_str(),
                cold.communication.toString().c_str(),
                cold.execution.toString().c_str(),
                cold.endToEnd.toString().c_str());

    auto warm =
        runtime.runSync(runtime.invoke("image-resize", {.pu = cold.pu}))
            .value();
    std::printf("warm : pu=%d (%s)  startup=%s  comm=%s  exec=%s  "
                "e2e=%s\n",
                warm.pu, hw::toString(computer->pu(warm.pu).type()),
                warm.startup.toString().c_str(),
                warm.communication.toString().c_str(),
                warm.execution.toString().c_str(),
                warm.endToEnd.toString().c_str());

    std::printf("\ncold/warm speedup: %.1fx (cfork + keep-alive)\n",
                cold.endToEnd.toMilliseconds() /
                    warm.endToEnd.toMilliseconds());
    return 0;
}
