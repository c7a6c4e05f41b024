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
#include <optional>
#include <string>
#include <vector>

#include "core/status.hh"
#include "fault/state.hh"
#include "hw/computer.hh"
#include "obs/trace.hh"
#include "os/fifo.hh"
#include "os/kernel.hh"
#include "sim/flat_map.hh"
#include "sim/spares.hh"
#include "sim/sync.hh"
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
 *
 * An XPUcall runs in the calling XpuClient's frame (DESIGN.md §4b):
 * the shim contributes non-suspending steps and leaf awaiters, its
 * handler burst, the sync apply and the home side of an XPU-FIFO,
 * which the client awaits inline. Only a broadcast's peer deliveries
 * and a lazy flush own frames of their own.
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

    /**
     * Configure multi-threaded XPUcall handling (§5): each shim thread
     * polls a dedicated MPSC queue, so up to @p n calls are decoded
     * concurrently. Default 1.
     */
    void setHandlerThreads(int n);

    /** Holds a handler slot taken with acquireHandler() for one
     * call's decode and checks; the slot is back as the awaiter
     * resumes. */
    using HandlerBurst = sim::HeldDelay;

    /**
     * @name Handling one XPUcall
     * `co_await acquireHandler(); co_await handlerBurst();` charges
     * this shim's per-call handling (decode + checks). One shim thread
     * decodes one call at a time, so calls queue FIFO for a handler
     * slot; with multi-threaded handling (per-thread MPSC queues, §5)
     * bursts no longer convoy. Each acquire counts one handled call.
     */
    ///@{
    auto
    acquireHandler()
    {
        ++xpucalls_;
        return handlerSlots_->acquire();
    }

    HandlerBurst handlerBurst();
    ///@}

    /** @name Replication (§5)
     * A replicated update is `co_await applyCost(); apply(msg);` on
     * each shim it reaches. */
    ///@{

    sim::Simulation::DelayAwaiter applyCost();

    /** Apply one replicated update to this shim's replica now. */
    void apply(const SyncMessage &msg);

    /**
     * One immediate synchronization, run inline by the XPUcall that
     * makes it; the call must not return before the update is
     * globally visible:
     * @code
     *   XpuShim::ImmediateSync sync(shim, msg, ctx); // opens xpu.sync
     *   co_await shim.applyCost();
     *   sync.deliver();         // apply here, one frame per peer
     *   co_await sync.wait();   // every live peer has acked
     * @endcode
     * @p msg must outlive the sync. The span closes with the object.
     */
    class ImmediateSync
    {
      public:
        ImmediateSync(XpuShim &shim, const SyncMessage &msg,
                      const obs::SpanContext &ctx);

        ImmediateSync(const ImmediateSync &) = delete;
        ImmediateSync &operator=(const ImmediateSync &) = delete;

        /** Apply the update here, then start a request hop, remote
         * apply and ack hop to every live peer. */
        void deliver();

        auto wait() { return deliveries_.wait(); }

      private:
        XpuShim &shim_;
        const SyncMessage &msg_;
        obs::Span span_;
        sim::Join deliveries_;
    };

    /** Force the lazy queue out (tests / shutdown). */
    sim::Task<> flushLazy();

    std::size_t lazyQueueDepth() const { return lazyQueue_.size(); }
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

    /** @name Introspection / stats */
    ///@{
    std::int64_t xpucallCount() const { return xpucalls_; }

    std::int64_t syncMessagesSent() const { return syncSent_; }

    /** Live backing queues on this PU (homed XPU-FIFOs). */
    std::size_t homedFifoCount() const { return queues_.size(); }

    /** Descriptors of closed fifos kept for reuse. */
    std::size_t retiredDescriptorCount() const
    {
        return retiredObjects_.size();
    }
    ///@}

  private:
    friend class XpuClient;

    using Queue = sim::Mailbox<os::FifoMessage>;
    using Descriptor = std::shared_ptr<DistributedObject>;

    struct HomedFifo
    {
        std::unique_ptr<Queue> queue;
        int refCount = 0;
        /** The fifo's descriptor, retired for reuse at the last close. */
        Descriptor desc;
    };

    /** @name The home side of an XPU-FIFO */
    ///@{

    HomedFifo *findHomed(ObjId obj);

    /** Home a new fifo's queue here, reusing a closed one's. */
    void openHomed(Descriptor desc);

    /** Drop the queue of a fifo whose last reference closed and
     * retire its descriptor. */
    void closeHomed(ObjId obj);

    /** Enqueue a write into a fifo homed here (never blocks). */
    core::Status deliverLocal(ObjId obj, std::uint64_t bytes,
                              const std::string &tag);

    /** Apply a lazy update here and queue it for the peers (after
     * applyCost()). @return true when the batch is full: the caller
     * then awaits flushLazy(). */
    bool queueLazy(const SyncMessage &msg);
    ///@}

    /** Batch size that triggers a lazy flush. */
    static constexpr std::size_t kLazyBatch = 8;

    XpuShimNetwork &net_;
    os::LocalOs &os_;
    Transport transport_;
    std::unique_ptr<sim::Semaphore> handlerSlots_;
    CapabilityStore caps_;
    /** crashLocal sorts the ids before it walks the rows. A closed
     * fifo's row stays as a spare with its queue, if idle. */
    sim::FlatMap<ObjId, HomedFifo> queues_;
    /** Descriptors of closed fifos, and of failed inits no replica
     * saw. Replicas drop theirs as the lazy removals flush; a crash
     * drops its pending removals, and the peers then hold those
     * descriptors for good. */
    sim::SpareRecords<DistributedObject> retiredObjects_;
    /** Queues poisoned at crash: the woken getters still touch them
     * when they resume. */
    sim::Graveyard<Queue> deadQueues_;
    std::vector<SyncMessage> lazyQueue_;
    /** Drained batch vectors: overlapping flushes each borrow one. */
    sim::Spares<std::vector<SyncMessage>> spareBatches_;
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

    /**
     * One nIPC hop, stepped by the coroutine that owns it:
     * @code
     *   XpuShimNetwork::Hop hop(net, from, to, bytes, ctx);
     *   while (hop.pending())
     *       co_await hop.step();
     * @endcode
     * It holds the "nipc.transfer" span and, through its
     * Topology::Transfer, the "hw.link" span until it is destroyed.
     * A same-PU hop has neither and takes no step.
     */
    class Hop
    {
      public:
        Hop(XpuShimNetwork &net, PuId from, PuId to, std::uint64_t bytes,
            const obs::SpanContext &ctx);

        bool pending() const { return link_ && link_->pending(); }

        /** The next delay; co_await it at once. */
        sim::Simulation::DelayAwaiter step() { return link_->step(); }

      private:
        obs::Span span_;
        std::optional<hw::Topology::Transfer> link_;
    };

    /** Move @p bytes between two PUs across the topology: one Hop,
     * stepped in a frame of its own. */
    sim::Task<> transfer(PuId from, PuId to, std::uint64_t bytes,
                         obs::SpanContext ctx = {});

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
