/**
 * @file
 * XPU-Shim: the distributed shim between one serverless runtime and the
 * multiple local OSes of a heterogeneous computer (§3).
 *
 * One XpuShim instance runs (as a pinned user-space process) on every
 * general-purpose PU; accelerators get *virtual* shim instances hosted
 * on a neighbor PU (§4.1). Shims replicate global state — distributed
 * objects and capabilities — with three strategies (§5):
 *
 *  - no synchronization for statically partitioned ids (pids, ObjIds);
 *  - immediate synchronization for xfifo_init and capability updates,
 *    so permission checks are always local;
 *  - lazy, batched synchronization for harmless-stale state (object
 *    reclamation when an XPU-FIFO's refcount reaches zero).
 *
 * XPU-FIFO: the backing queue lives on the creator's PU (home). Writes
 * from other PUs cross the interconnect (nIPC); the measured latencies
 * of Fig 8 are exactly this path under the three XPUcall transports.
 */

#ifndef MOLECULE_XPU_SHIM_HH
#define MOLECULE_XPU_SHIM_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.hh"
#include "fault/state.hh"
#include "hw/computer.hh"
#include "obs/trace.hh"
#include "os/fifo.hh"
#include "os/kernel.hh"
#include "xpu/capability.hh"
#include "xpu/message.hh"
#include "xpu/transport.hh"

namespace molecule::xpu {

class XpuShimNetwork;

/** A capability passed to xSpawn's capv argument (Table 2). */
struct CapGrant
{
    ObjId obj = 0;
    Perm perm = Perm::None;
};

/**
 * The shim instance of one PU.
 */
class XpuShim
{
  public:
    /**
     * @param net the computer-wide shim network
     * @param os the local OS this shim runs on
     * @param transport XPUcall transport used by processes on this PU
     */
    XpuShim(XpuShimNetwork &net, os::LocalOs &os, TransportKind transport);

    PuId puId() const;

    os::LocalOs &localOs() { return os_; }

    const Transport &transport() const { return transport_; }

    void setTransport(TransportKind kind) { transport_ = Transport(kind); }

    CapabilityStore &caps() { return caps_; }
    const CapabilityStore &caps() const { return caps_; }

    /** Charge this shim's per-call handling cost (decode + checks). */
    sim::Task<> handleCost();

    /**
     * Configure multi-threaded XPUcall handling (§5): each shim thread
     * polls a dedicated MPSC queue, so up to @p n calls are decoded
     * concurrently. Default 1.
     */
    void setHandlerThreads(int n);

    int handlerThreads() const { return handlerThreads_; }

    /** @name XPUcall backends (Table 2), invoked via XpuClient. */
    ///@{

    [[nodiscard]] sim::Task<core::Status>
    grantCap(XpuPid caller, XpuPid target, ObjId obj, Perm perm,
             obs::SpanContext ctx = {});

    [[nodiscard]] sim::Task<core::Status>
    revokeCap(XpuPid caller, XpuPid target, ObjId obj, Perm perm,
              obs::SpanContext ctx = {});

    /**
     * Create an XPU-FIFO homed on this PU. The global UUID must be
     * unique computer-wide, which is why this call synchronizes
     * immediately with every peer shim.
     */
    [[nodiscard]] sim::Task<core::Expected<ObjId>>
    xfifoInit(XpuPid caller, const std::string &globalUuid,
              obs::SpanContext ctx = {});

    /** Connect to an XPU-FIFO by global UUID (needs Read or Write). */
    [[nodiscard]] sim::Task<core::Expected<ObjId>>
    xfifoConnect(XpuPid caller, const std::string &globalUuid);

    /** Write @p bytes (payload rides shared memory / the wire). */
    [[nodiscard]] sim::Task<core::Status>
    xfifoWrite(XpuPid caller, ObjId obj, std::uint64_t bytes,
               const std::string &tag, obs::SpanContext ctx = {});

    /** Blocking read from an XPU-FIFO. Fails typed — never hangs —
     * when the fifo's home PU crashes while the read is pending. */
    [[nodiscard]] sim::Task<core::Expected<os::FifoMessage>>
    xfifoRead(XpuPid caller, ObjId obj, obs::SpanContext ctx = {});

    /** Drop one reference; reclamation syncs lazily. */
    [[nodiscard]] sim::Task<core::Status>
    xfifoClose(XpuPid caller, ObjId obj);

    /**
     * Spawn @p path on PU @p target, granting @p capv to the child
     * (no permissions are inherited implicitly, §3.4).
     */
    [[nodiscard]] sim::Task<core::Expected<XpuPid>>
    xspawn(XpuPid caller, PuId target, const std::string &path,
           const std::vector<CapGrant> &capv, std::uint64_t memBytes,
           obs::SpanContext ctx = {});
    ///@}

    /** @name Crash & restart recovery */
    ///@{

    /**
     * The PU hosting this shim crashed: fail every pending blocking
     * read with a typed error (the backing queues are poisoned and
     * retired, never destroyed under a suspended getter), drop the
     * lazy queue and reset the capability replica — a reboot loses
     * all local OS state (§3.2).
     */
    void crashLocal();

    /** Rebuild the capability replica from a live peer (restart). */
    void resyncFrom(XpuShim &peer);
    ///@}

    /** @name Inter-shim plumbing */
    ///@{

    /** Apply one replicated update locally (charges apply cost). */
    sim::Task<> applySync(const SyncMessage &msg);

    /** Immediate synchronization: deliver to all peers, await acks. */
    sim::Task<> broadcastImmediate(const SyncMessage &msg,
                                   obs::SpanContext ctx = {});

    /** Queue a lazy update; flushes in batches. */
    sim::Task<> enqueueLazy(const SyncMessage &msg);

    /** Force the lazy queue out (tests / shutdown). */
    sim::Task<> flushLazy();

    std::size_t lazyQueueDepth() const { return lazyQueue_.size(); }
    ///@}

    /** @name Introspection / stats */
    ///@{
    std::int64_t xpucallCount() const { return xpucalls_; }

    std::int64_t syncMessagesSent() const { return syncSent_; }

    /** Live backing queues on this PU (homed XPU-FIFOs). */
    std::size_t homedFifoCount() const { return queues_.size(); }
    ///@}

  private:
    friend class XpuClient;

    struct HomedFifo
    {
        std::unique_ptr<sim::Mailbox<os::FifoMessage>> queue;
        int refCount = 0;
    };

    /** Deliver a write into a fifo homed here (charges handling). */
    [[nodiscard]] sim::Task<core::Status>
    deliverLocal(ObjId obj, std::uint64_t bytes, const std::string &tag);

    /** Blocking pop from a fifo homed here. */
    [[nodiscard]] sim::Task<core::Expected<os::FifoMessage>>
    consumeLocal(ObjId obj);

    HomedFifo *findHomed(ObjId obj);

    /** Home a new fifo's queue here, reusing a closed one's. */
    void openHomed(ObjId obj);

    /** Drop the queue of a fifo whose last reference closed. */
    void closeHomed(ObjId obj);

    /** Batch size that triggers a lazy flush. */
    static constexpr std::size_t kLazyBatch = 8;

    XpuShimNetwork &net_;
    os::LocalOs &os_;
    Transport transport_;
    int handlerThreads_ = 1;
    std::unique_ptr<sim::Semaphore> handlerSlots_;
    CapabilityStore caps_;
    using HomedQueues = std::unordered_map<ObjId, HomedFifo>;
    /** Never iterated in hash order: crashLocal sorts the ids first. */
    HomedQueues queues_;
    /** Closed fifos' table nodes and empty queues, kept for reuse so
     * a steady stream of short-lived fifos allocates nothing. */
    std::vector<HomedQueues::node_type> spareHomed_;
    /** Poisoned queues retired at crash: suspended getters woken by
     * the poison still touch the mailbox when they resume, so it must
     * outlive the crash instant. */
    std::vector<std::unique_ptr<sim::Mailbox<os::FifoMessage>>>
        deadQueues_;
    std::vector<SyncMessage> lazyQueue_;
    /** Drained batch vectors, capacity kept for the next flush. */
    std::vector<std::vector<SyncMessage>> spareBatches_;
    /** Tracked: a same-tick enqueue/flush pair changes which batch a
     * lazy update rides in, decided only by the event tie-break. */
    sim::analysis::Tracked<std::uint64_t> lazyEpoch_{0, "xpu.lazyQueue"};
    std::int64_t xpucalls_ = 0;
    std::int64_t syncSent_ = 0;
};

/**
 * All shims of one heterogeneous computer plus the program registry
 * used by xSpawn.
 */
class XpuShimNetwork
{
  public:
    /** Factory invoked when xSpawn starts @p path somewhere. */
    using ProgramHook =
        std::function<void(XpuShim &shim, os::Process &proc)>;

    explicit XpuShimNetwork(hw::Computer &computer)
        : computer_(computer)
    {}

    XpuShimNetwork(const XpuShimNetwork &) = delete;
    XpuShimNetwork &operator=(const XpuShimNetwork &) = delete;

    hw::Computer &computer() { return computer_; }

    /** Create the shim for @p os's PU. */
    XpuShim *addShim(os::LocalOs &os, TransportKind transport);

    /** Shim on PU @p pu (fatal when absent). */
    XpuShim &shimOn(PuId pu);

    bool hasShim(PuId pu) const;

    /** Every shim in PU order (cached; broadcasts walk it). */
    const std::vector<XpuShim *> &allShims() const { return ordered_; }

    /** Wire the fault state in (nullptr = fault-free, the default). */
    void attachFaults(const fault::FaultState *faults)
    {
        faults_ = faults;
    }

    /** True when @p pu is currently crashed (always false unfaulted). */
    bool puDown(PuId pu) const
    {
        return faults_ != nullptr && !faults_->puUp(pu);
    }

    /** Register the behavior behind an xSpawn'able program path. */
    void registerProgram(const std::string &path, ProgramHook hook);

    const ProgramHook *findProgram(const std::string &path) const;

    /** Move @p bytes between two PUs across the topology. */
    sim::Task<> transfer(PuId from, PuId to, std::uint64_t bytes,
                         obs::SpanContext ctx = {});

    /** Closed-form link latency (diagnostics). */
    sim::SimTime transferLatency(PuId from, PuId to,
                                 std::uint64_t bytes) const;

    /** Default xSpawn'd process image size (paper: thin executor). */
    static constexpr std::uint64_t kDefaultSpawnBytes = 8ULL << 20;

  private:
    hw::Computer &computer_;
    const fault::FaultState *faults_ = nullptr;
    /** Indexed by PuId (PU ids are dense per computer). */
    std::vector<std::unique_ptr<XpuShim>> shims_;
    std::vector<XpuShim *> ordered_;
    std::map<std::string, ProgramHook> programs_;
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_SHIM_HH
