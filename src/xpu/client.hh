/**
 * @file
 * The XPUcall client library (the "XPU-Shim library" of §5).
 *
 * XpuClient is linked into a process and exposes the Table 2 XPUcall
 * surface. Each call charges the transport costs of crossing into the
 * local shim and back (Figure 7), plus per-byte marshalling of bulk
 * payloads into the per-process shared-memory argument area.
 */

#ifndef MOLECULE_XPU_CLIENT_HH
#define MOLECULE_XPU_CLIENT_HH

#include <string>
#include <utility>
#include <vector>

#include "xpu/shim.hh"

namespace molecule::xpu {

/**
 * Per-process handle to the local shim.
 */
class XpuClient
{
  public:
    /** Attach the library to @p proc, using the shim of its PU. */
    XpuClient(XpuShim &shim, os::Process &proc);

    /** Table 2 get_xpupid: purely local, no XPUcall. */
    XpuPid xpuPid() const { return self_; }

    XpuShim &shim() { return shim_; }

    /**
     * Causal parent for subsequent XPUcalls. The library itself has no
     * notion of invocations, so the runtime sets the ambient context
     * before driving calls on this client (obs subsystem).
     */
    void setTraceContext(obs::SpanContext ctx) { ctx_ = ctx; }

    obs::SpanContext traceContext() const { return ctx_; }

    /** @name Distributed capability calls */
    ///@{
    [[nodiscard]] sim::Task<core::Status>
    grantCap(XpuPid target, ObjId obj, Perm perm);

    [[nodiscard]] sim::Task<core::Status>
    revokeCap(XpuPid target, ObjId obj, Perm perm);
    ///@}

    /** @name Neighbor IPC (XPU-FIFO) calls */
    ///@{

    /** Create an XPU-FIFO homed on this PU. */
    [[nodiscard]] sim::Task<core::Expected<XpuFd>>
    xfifoInit(const std::string &globalUuid);

    [[nodiscard]] sim::Task<core::Expected<XpuFd>>
    xfifoConnect(const std::string &globalUuid);

    [[nodiscard]] sim::Task<core::Status>
    xfifoWrite(XpuFd fd, std::uint64_t bytes, const std::string &tag);

    [[nodiscard]] sim::Task<core::Expected<os::FifoMessage>>
    xfifoRead(XpuFd fd);

    [[nodiscard]] sim::Task<core::Status>
    xfifoClose(XpuFd fd);
    ///@}

    /** Table 2 xSpawn. */
    [[nodiscard]] sim::Task<core::Expected<XpuPid>>
    xspawn(PuId target, const std::string &path,
           const std::vector<CapGrant> &capv,
           std::uint64_t memBytes = XpuShimNetwork::kDefaultSpawnBytes);

    /** Distributed object behind an fd (0 when unknown). */
    ObjId objectOf(XpuFd fd) const;

  private:
    /** Charge the client->shim crossing for a small-argument call. */
    sim::Simulation::DelayAwaiter enterCall(std::uint64_t argBytes);

    /** Charge the shim->client crossing. */
    sim::Simulation::DelayAwaiter leaveCall(std::uint64_t resultBytes);

    /** Charge marshalling @p bytes through the shared-memory area. */
    sim::Simulation::DelayAwaiter marshalBulk(std::uint64_t bytes);

    /** Open fd @p fd on @p obj. */
    XpuFd openFd(ObjId obj);

    /** Entry of @p fd in fds_, or fds_.end(). */
    std::vector<std::pair<XpuFd, ObjId>>::const_iterator
    findFd(XpuFd fd) const;

    XpuShim &shim_;
    XpuPid self_;
    obs::SpanContext ctx_;
    /** Open fds: a process holds a few, so a flat list is enough. */
    std::vector<std::pair<XpuFd, ObjId>> fds_;
    XpuFd nextFd_ = 3;
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_CLIENT_HH
