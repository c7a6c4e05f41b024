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

#include <array>
#include <string>
#include <vector>

#include "xpu/shim.hh"

namespace molecule::xpu {

/**
 * Per-process handle to the local shim.
 *
 * Each XPUcall is one coroutine frame (DESIGN.md §4b): the client
 * crossing, the shim's handling, its permission and descriptor steps
 * and any nIPC hops run inline in it.
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

    /**
     * Create an XPU-FIFO homed on this PU. The global UUID must be
     * unique computer-wide, which is why this call synchronizes
     * immediately with every peer shim.
     */
    [[nodiscard]] sim::Task<core::Expected<XpuFd>>
    xfifoInit(const std::string &globalUuid);

    /** Connect to an XPU-FIFO by global UUID (needs Read or Write). */
    [[nodiscard]] sim::Task<core::Expected<XpuFd>>
    xfifoConnect(const std::string &globalUuid);

    /** Write @p bytes (payload rides shared memory / the wire). */
    [[nodiscard]] sim::Task<core::Status>
    xfifoWrite(XpuFd fd, std::uint64_t bytes, const std::string &tag);

    /** Blocking read. Fails typed, never hangs, when the fifo's home
     * PU crashes while the read is pending. */
    [[nodiscard]] sim::Task<core::Expected<os::FifoMessage>>
    xfifoRead(XpuFd fd);

    /** Drop one reference; reclamation syncs lazily. */
    [[nodiscard]] sim::Task<core::Status>
    xfifoClose(XpuFd fd);
    ///@}

    /**
     * Table 2 xSpawn: start @p path on PU @p target, granting @p capv
     * to the child (no permissions are inherited implicitly, §3.4).
     */
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

    /** The home PU of @p obj once this process holds @p need on it
     * (checked at the local shim, after its handling); @p denied
     * names a missing permission. */
    core::Expected<PuId> homeOf(ObjId obj, Perm need,
                                const char *denied) const;

    /** grantCap / revokeCap: @p name is the span, @p op the update. */
    sim::Task<core::Status> capCall(const char *name, SyncOp op,
                                    XpuPid target, ObjId obj, Perm perm);

    struct FdEntry
    {
        XpuFd fd = -1;
        ObjId obj = 0;
    };

    /** Open fd @p fd on @p obj. */
    XpuFd openFd(ObjId obj);

    /** Entry of @p fd, or null. */
    FdEntry *findFd(XpuFd fd);
    const FdEntry *findFd(XpuFd fd) const;

    /** Forget the entry of an open fd. */
    void closeFd(FdEntry &entry);

    /** Fds a process keeps without allocating. */
    static constexpr std::size_t kInlineFds = 4;

    XpuShim &shim_;
    XpuPid self_;
    obs::SpanContext ctx_;
    /** Open fds: a process holds a few, so they sit inline (a free
     * slot has fd -1) and only the rest go to a flat list. */
    std::array<FdEntry, kInlineFds> fds_{};
    std::vector<FdEntry> moreFds_;
    XpuFd nextFd_ = 3;
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_CLIENT_HH
