/**
 * @file
 * Deployable function artifacts.
 *
 * A FunctionImage is what the platform's offline build step produces
 * for one function on one kind of PU (§2.1.2): language + code +
 * dependency metadata for CPU/DPU functions, a synthesizable kernel
 * with resource usage for FPGA functions, a CUDA module for GPU
 * functions. The workloads library instantiates these for the paper's
 * benchmark suites.
 */

#ifndef MOLECULE_SANDBOX_FUNCTION_IMAGE_HH
#define MOLECULE_SANDBOX_FUNCTION_IMAGE_HH

#include <cstdint>
#include <string>

#include "hw/calibration.hh"
#include "hw/fpga.hh"

namespace molecule::sandbox {

/** Language runtime of a function (§5: Python + Node cover ~90%). */
enum class Language { Python, Node, FpgaOpenCl, CudaCpp };

const char *toString(Language lang);

/** Cold-start cost of a language runtime before imports (host-ref). */
sim::SimTime runtimeColdStart(Language lang);

/**
 * Memory layout of one CPU/DPU function instance, in bytes.
 *
 * runtimeShared is the interpreter + common dependencies that a cfork
 * template shares with children; privateBytes is per-instance heap;
 * templateExtra is template-only state (fork bookkeeping, preloaded
 * code cache) that children do not map.
 */
struct MemoryFootprint
{
    std::uint64_t runtimeShared = 0;
    std::uint64_t privateBytes = 0;
    std::uint64_t templateExtra = 0;

    std::uint64_t
    coldTotal() const
    {
        return runtimeShared + privateBytes;
    }
};

/**
 * One function's deployable image.
 */
struct FunctionImage
{
    std::string funcId;
    Language language = Language::Python;

    MemoryFootprint mem;

    /** Importing function-specific dependencies on cold boot. */
    sim::SimTime importCost;

    /** Loading code (+ lazy deps) into a cfork'd child (§4.2). */
    sim::SimTime funcLoadCost;

    /**
     * Fraction of the shared runtime a child dirties on its first
     * execution (COW page faults). Solved from the Fig 14-b deltas
     * (cfork'd instances are only slightly slower on their first
     * warm invocation): a few hundred KB of interpreter state.
     */
    double cowTouchFraction = 0.004;

    /** FPGA functions: fabric resources of one kernel slot (Tab 4). */
    hw::FpgaResources fpgaResources;

    /** FPGA functions: preferred DRAM bank (§5 static partitioning). */
    int dramBank = -1;
};

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_FUNCTION_IMAGE_HH
