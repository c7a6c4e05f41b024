/**
 * @file
 * runG: the vectorized sandbox runtime for GPU functions (§6.8).
 *
 * GPUs are naturally "vectorized": an MPS-style service keeps many
 * modules resident concurrently, so create loads a module, start is a
 * state change, and delete actually unloads (unlike runf there is no
 * exclusive image to preserve). This is the Table 5 generality row.
 */

#ifndef MOLECULE_SANDBOX_RUNG_HH
#define MOLECULE_SANDBOX_RUNG_HH

#include <map>
#include <string>

#include "hw/gpu.hh"
#include "hw/interconnect.hh"
#include "os/kernel.hh"
#include "sandbox/oci.hh"

namespace molecule::sandbox {

/**
 * GPU sandbox runtime hosted by a neighbor PU whose shim stands in for
 * the device's own.
 */
class RungRuntime
{
  public:
    RungRuntime(os::LocalOs &hostOs, hw::GpuDevice &device);

    hw::GpuDevice &device() { return device_; }

    SandboxState state(const std::string &sandboxId);

    /** Load the function's CUDA module into the shared context. */
    sim::Task<bool> create(const CreateRequest &req);

    sim::Task<bool> start(const std::string &sandboxId);

    /** Unload the module (GPU slots are cheap to reclaim). */
    sim::Task<> destroy(const std::string &sandboxId);

    /** Run one request: DMA input, launch kernel, DMA output. */
    sim::Task<> invoke(const std::string &sandboxId,
                       sim::SimTime kernelTime, std::uint64_t inBytes,
                       std::uint64_t outBytes,
                       obs::SpanContext ctx = {});

  private:
    struct GpuSandbox
    {
        std::string id;
        const FunctionImage *image = nullptr;
        SandboxState state = SandboxState::Unknown;
    };

    GpuSandbox *find(const std::string &sandboxId);

    os::LocalOs &hostOs_;
    hw::GpuDevice &device_;
    hw::Link dmaLink_;
    std::map<std::string, GpuSandbox> sandboxes_;
};

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_RUNG_HH
