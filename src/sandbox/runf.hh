/**
 * @file
 * runf: the vectorized sandbox runtime for FPGA functions (§3.5).
 *
 * runf maintains FPGA serverless instance states and drives the
 * device:
 *
 *  - create vector<sandbox, func-id> composes *one* image out of the
 *    whole vector (wrapper + one kernel slot per sandbox) and programs
 *    it, so later requests likely hit a cached instance;
 *  - start  vector<sandbox-id> prepares sandboxes concurrently; a
 *    warm sandbox dispatches in kFpgaSandboxPrepCost (53 ms) or less;
 *  - delete is a state-only operation: the resident image keeps its
 *    slots and the *next* create replaces the hardware (no erase);
 *  - the Baseline ablation path erases the device before programming
 *    (Fig 10-c).
 *
 * Data movement: invocation inputs/outputs cross the PCIe DMA link
 * unless zero-copy chaining via DRAM data retention is used (§4.3,
 * Fig 13), in which case the data stays in the function's bank.
 */

#ifndef MOLECULE_SANDBOX_RUNF_HH
#define MOLECULE_SANDBOX_RUNF_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/status.hh"
#include "hw/interconnect.hh"
#include "os/kernel.hh"
#include "sandbox/oci.hh"

namespace molecule::sandbox {

/** Knobs for the Fig 10-c startup ablation. */
struct RunfOptions
{
    /** Erase the fabric before programming (the naive Baseline). */
    bool eraseBeforeProgram = false;
    /** Bitstream is cached host-side (Warm-image path). */
    bool bitstreamCached = false;
};

/**
 * FPGA sandbox runtime, hosted by a neighbor PU whose shim stands in
 * for the device's own (the FPGA runs no OS).
 */
class RunfRuntime
{
  public:
    RunfRuntime(os::LocalOs &hostOs, hw::FpgaDevice &device);

    hw::FpgaDevice &device() { return device_; }

    RunfOptions &options() { return options_; }

    /** @name Scalar OCI operations */
    ///@{
    SandboxState state(const std::string &sandboxId);

    /** Prepare the sandbox around its resident kernel, unless warm. */
    sim::Task<bool> start(const std::string &sandboxId);

    /** State-only delete (§3.5): real destroy is the next create. */
    sim::Task<> destroy(const std::string &sandboxId);
    ///@}

    /** @name Vectorized operations (Table 3, genuinely batched) */
    ///@{

    /**
     * Compose one image from all requests and program it, replacing
     * the resident image. Typed failures: NoCapacity when the vector
     * exceeds the fabric resources, FpgaReconfigFailed when an
     * injected reconfiguration failure fires mid-flash.
     */
    sim::Task<core::Expected<int>>
    createVector(const std::vector<CreateRequest> &reqs);

    /** Prepare sandboxes concurrently (start vector<sandbox-id>). */
    sim::Task<int>
    startVector(const std::vector<std::string> &ids);
    ///@}

    /**
     * Handle one request: DMA the input to the device (or find it
     * retained in the function's DRAM bank), run the kernel, DMA the
     * output back (or leave it in the bank for the next function).
     */
    sim::Task<> invoke(const std::string &sandboxId,
                       sim::SimTime kernelTime, std::uint64_t inBytes,
                       std::uint64_t outBytes, bool zeroCopyIn,
                       bool zeroCopyOut, obs::SpanContext ctx = {});

    /** True when the function's slot survives in the resident image. */
    bool cached(const std::string &funcId) const;

    /** True when the sandbox is warm (prep already paid). */
    bool warm(const std::string &sandboxId) const;

  private:
    struct FpgaSandbox
    {
        std::string id;
        const FunctionImage *image = nullptr;
        SandboxState state = SandboxState::Unknown;
        bool warm = false;
    };

    FpgaSandbox *find(const std::string &sandboxId);

    os::LocalOs &hostOs_;
    hw::FpgaDevice &device_;
    RunfOptions options_;
    hw::Link dmaLink_;
    std::map<std::string, FpgaSandbox> sandboxes_;
    std::uint64_t nextImageId_ = 1;
};

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_RUNF_HH
