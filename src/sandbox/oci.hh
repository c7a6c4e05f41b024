/**
 * @file
 * The vocabulary the sandbox runtimes share (Table 3).
 *
 * The OCI lifecycle (state/create/start/delete) abstracts container-,
 * VM- and process-based sandboxes alike. Each runtime implements it
 * as a plain class, in the shape its callers drive: runc by
 * reference to an Instance row (runc.hh), runG by sandbox id
 * (rung.hh), and runf as Molecule's vectorized extension, which
 * creates and starts *sets* of sandboxes at once so N FPGA functions
 * pack into one image (§3.5, runf.hh). No runtime sends signals, so
 * there is no kill.
 */

#ifndef MOLECULE_SANDBOX_OCI_HH
#define MOLECULE_SANDBOX_OCI_HH

#include <string>

#include "obs/trace.hh"
#include "sandbox/function_image.hh"

namespace molecule::sandbox {

/** Lifecycle state of a sandbox (OCI state machine). */
enum class SandboxState { Unknown, Creating, Created, Running, Stopped };

const char *toString(SandboxState s);

/** Arguments of one create operation. */
struct CreateRequest
{
    std::string sandboxId;
    const FunctionImage *image = nullptr;
    /** Causal parent span of the startup driving this create. */
    obs::SpanContext ctx{};
};

} // namespace molecule::sandbox

#endif // MOLECULE_SANDBOX_OCI_HH
