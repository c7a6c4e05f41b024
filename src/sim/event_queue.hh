/**
 * @file
 * Deterministic pending-event set for the discrete-event kernel.
 *
 * Events scheduled for the same timestamp fire in scheduling order
 * (FIFO), which makes every simulation run bit-reproducible for a given
 * seed regardless of container iteration quirks.
 */

#ifndef MOLECULE_SIM_EVENT_QUEUE_HH
#define MOLECULE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/arena.hh"
#include "sim/callback.hh"
#include "sim/time.hh"
#include "sim/timer_wheel.hh"

namespace molecule::sim {

/**
 * Handle identifying a scheduled event, usable for cancellation.
 *
 * Encodes (generation << 32) | slab slot. A slot's generation bumps
 * every time the slot is recycled, so a stale id (fired or cancelled
 * event) is rejected in O(1) without any lookup structure. Id 0 is
 * never issued (generations start at 1).
 */
using EventId = std::uint64_t;

/** One entry of a scheduleBatch() request. */
struct BatchEvent
{
    SimTime when;
    InlineCallback fn;
};

/**
 * Allocation-free pending-event set: a hierarchical calendar wheel and
 * a sorted ready-run in front of a 4-ary min-heap, all over a
 * generation-tagged slab of callback slots.
 *
 * - schedule: O(1) wheel insert for short/medium delays (65.5 us
 *   windows, ~17.2 s horizon); O(log n) heap insert for far-future
 *   events past the horizon and for near-empty queues (below
 *   kDirectHeapThreshold live events the heap is already cheaper);
 * - cancel:   O(1). The callback is destroyed and its slot recycled
 *   immediately; the node (heap, wheel or run) goes stale and is
 *   dropped lazily or by the amortized compaction below;
 * - pop:      O(1) amortized for the dense case. When the simulation
 *   reaches a level-0 window, its whole bucket is drained, sorted by
 *   (time, seq) — adaptive: already-sorted input is O(n) — and
 *   consumed front to back with no per-event sift; each pop compares
 *   the run head against the heap head only.
 *
 * A stale node is detected by sequence mismatch: each slab slot
 * remembers the schedule sequence of its current occupant, and a node
 * whose seq differs refers to a dead (cancelled or recycled) event.
 * Stale heap nodes trigger an O(n) rebuild when they outnumber
 * max(live, kCompactSlack); stale wheel nodes trigger a bucket sweep
 * (they never slow pops, so the sweep bounds memory only); stale run
 * entries are skipped at the head for free.
 *
 * Determinism: every pop takes the global (time, sequence) minimum of
 * run head and heap head, and settle() drains a wheel window only when
 * no live head precedes its start — so same-instant events fire in
 * scheduling order (FIFO) and the pop sequence is bit-identical to a
 * heap-only queue.
 */
class EventQueue
{
  public:
    /** Live-event floor below which inserts bypass the wheel. */
    static constexpr std::size_t kDirectHeapThreshold = 16;

    /** Schedule @p fn at absolute time @p when; returns a cancel id. */
    EventId schedule(SimTime when, InlineCallback fn);

    /**
     * Fast path for the dominant event kind: resume a coroutine at
     * @p when. The handle is written straight into the slab slot —
     * no closure object, no type-erased move.
     */
    EventId schedule(SimTime when, std::coroutine_handle<> h);

    /**
     * Hot path for lambdas: the callable is constructed directly in
     * its slab slot (no construct-then-relocate round trip through a
     * temporary InlineCallback).
     */
    template <
        typename F,
        std::enable_if_t<
            !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                !std::is_convertible_v<F &&, std::coroutine_handle<>> &&
                std::is_invocable_r_v<void, std::decay_t<F> &>,
            int> = 0>
    EventId
    schedule(SimTime when, F &&fn)
    {
        const std::uint32_t slot = acquireSlot();
        Slot &s = slotAt(slot);
        s.fn.emplace(std::forward<F>(fn));
        s.seq = nextSeq_++;
        ++live_;
        place(Node{when.raw(), s.seq, slot}, s);
        return (EventId(s.generation) << 32) | slot;
    }

    /**
     * Schedule a batch of events in order (sequence numbers are
     * consecutive, so same-instant batch entries fire in array
     * order). Callbacks are moved out of @p events. When @p idsOut is
     * non-null it receives one cancel id per entry.
     */
    void scheduleBatch(std::span<BatchEvent> events,
                       EventId *idsOut = nullptr);

    /** Batch coroutine resumption: all handles at @p when, in order. */
    void scheduleBatch(SimTime when,
                       std::span<const std::coroutine_handle<>> hs);

    /**
     * Cancel a previously scheduled event.
     * @retval true the event had not fired and is now cancelled.
     */
    bool cancel(EventId id);

    /** True when no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    std::size_t size() const { return live_; }

    /** Timestamp of the next live event. Queue must not be empty. */
    SimTime nextTime() const;

    /** Schedule sequence of the next live event (tie-break key). */
    std::uint64_t nextEventSeq() const;

    /** Sequence assigned by the most recent schedule() call. */
    std::uint64_t lastScheduledSeq() const { return nextSeq_ - 1; }

    /** Sequence of a pending event; 0 when @p id is stale/invalid. */
    std::uint64_t seqOfEvent(EventId id) const;

    /**
     * True when an event scheduled now for @p when would be the next
     * one popped: @p when is strictly earlier than every live event.
     * Settles only when the wheel's hint() cannot decide. Inline: a
     * delay that is queued pays for this check on top of schedule().
     */
    bool
    precedesAll(SimTime when)
    {
        const std::int64_t t = when.raw();
        if (!wheel_.empty() && t >= wheel_.hint()) {
            settle(); // the hint is too loose to rule the wheel out
        } else {
            while (runPos_ < run_.size() && stale(run_[runPos_]))
                ++runPos_;
        }
        // Both heads are live now. Strict <: an equal-time event holds
        // a smaller sequence number.
        return (runPos_ == run_.size() || t < run_[runPos_].when) &&
               (heap_.empty() || t < heap_.front().when);
    }

    /**
     * Consume one sequence number without queueing anything: the
     * stand-in for an event that precedesAll() said would fire next
     * and that the caller ran at once. Later events are numbered as
     * if it had been scheduled and popped.
     */
    void skipSeq() { ++nextSeq_; }

    /**
     * Pop the next live event without running it, so the driver can
     * advance the clock to the event's timestamp before executing the
     * callback (coroutines resumed by the callback must observe the
     * new time).
     */
    std::pair<SimTime, InlineCallback> popNext();

    /**
     * Pop the next live event and invoke its callback in place (the
     * simulation driver's hot path: saves moving the callable out of
     * its slot). The event is removed from the queue *before* the
     * callback runs, so the callback may schedule and cancel freely;
     * slab chunks are address-stable, making the in-place invocation
     * safe. The caller must advance its clock to nextTime() first.
     */
    void fireNext();

    /**
     * Drain-K: fire up to @p maxEvents events whose time is at most
     * @p deadline, writing each event's timestamp to @p clock *before*
     * invoking its callback. This is run()'s hot loop without the
     * per-event function-call and empty-recheck overhead of step().
     * @return number of events fired.
     */
    std::size_t drain(SimTime &clock, SimTime deadline,
                      std::size_t maxEvents);

    /**
     * Number of slab slots ever allocated (live + free-listed).
     * Diagnostics: bounded by the high-water mark of concurrently
     * *live* events, not by schedule/cancel churn.
     */
    std::size_t slabCapacity() const { return slotCount_; }

    /** Heap nodes currently held, live + stale (diagnostics). */
    std::size_t heapSize() const { return heap_.size(); }

    /** Wheel nodes currently parked, live + stale (diagnostics). */
    std::size_t wheelEntries() const { return wheel_.entries(); }

    /** Ready-run entries not yet consumed, live + stale. */
    std::size_t runLength() const { return run_.size() - runPos_; }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    /** Slot.nextFree side markers while a slot is occupied: cancel
     * learns in O(1) which structure holds the node it staled. */
    static constexpr std::uint32_t kInHeap = 0xfffffffeu;
    static constexpr std::uint32_t kInWheel = 0xfffffffdu;
    static constexpr std::uint32_t kInRun = 0xfffffffcu;

    /** Stale-node floor before heap compaction triggers. */
    static constexpr std::size_t kCompactSlack = 64;

    /** Stale-node floor before a wheel sweep triggers. Larger than the
     * heap's: a sweep walks every bucket, and wheel staleness (unlike
     * heap staleness) never slows pops down, so it is purely a memory
     * bound. */
    static constexpr std::size_t kWheelSlack = 256;

    /** Heap/wheel/run node: POD, 24 bytes, ordered by (when, seq). */
    using Node = EventNode;

    /** Slab slot owning the callback of one pending event. */
    struct Slot
    {
        InlineCallback fn;
        /** Schedule seq of the current occupant; stale-node filter. */
        std::uint64_t seq = 0;
        std::uint32_t generation = 1;
        std::uint32_t nextFree = kNoSlot;
    };

    static bool
    before(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * Slab storage is chunked so slots never relocate: growing the
     * slab must not move InlineCallbacks (a vector resize would call
     * their type-erased relocate op per element, which dominates the
     * schedule hot path when a queue warms up).
     */
    static constexpr std::size_t kChunkShift = 8;
    static constexpr std::size_t kChunkSize = std::size_t(1)
                                              << kChunkShift;

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    const Slot &
    slotAt(std::uint32_t slot) const
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
    }

    bool
    stale(const Node &n) const
    {
        return slotAt(n.slot).seq != n.seq;
    }

    /** Route a fresh node to the wheel or the heap. */
    void place(const Node &n, Slot &s);

    /**
     * Establish the settled invariant: the earlier of run head and
     * heap head (both live) is the globally earliest live event —
     * every wheel window starting no later has been drained or
     * cascaded in. All read-side accessors (nextTime, popNext,
     * fireNext, drain) settle first.
     */
    void settle();

    /** Earlier of live run head / heap head; null when both empty. */
    const Node *minHead() const;

    static constexpr std::int64_t kNoDeadline =
        std::numeric_limits<std::int64_t>::max();

    /**
     * The one pop: settle, then take the earlier of run head and heap
     * head into @p top and drop the stale heap nodes behind it —
     * unless it is due after @p until. Queue must not be empty.
     * @retval false the head is due after @p until; nothing taken.
     * Inline (defined in event_queue.cc, its only user): the hot
     * loops must not pay a call per event.
     */
    inline bool takeHead(std::int64_t until, Node &top);

    /** Run a taken event's callback in its slot, then free the slot. */
    inline void fire(const Node &top);

    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);

    /** Drop stale nodes sitting at the heap head. */
    void skipStale();

    /** Rebuild the heap without stale nodes (amortized O(1)/cancel). */
    void compact();

    /** Sort a drained bucket by (when, seq); adaptive — the common
     * time-ordered-insert case costs one is-sorted scan. */
    static void sortNodes(std::vector<Node> &nodes);

    std::uint32_t
    acquireSlot()
    {
        if (freeHead_ != kNoSlot) {
            const std::uint32_t slot = freeHead_;
            Slot &s = slotAt(slot);
            freeHead_ = s.nextFree;
            s.nextFree = kNoSlot;
            return slot;
        }
        return growSlot();
    }

    /** Slab-growth slow path of acquireSlot(). */
    std::uint32_t growSlot();

    /** Retire the slot's id/seq so stale nodes and ids are rejected. */
    void invalidateSlot(Slot &s);

    /** Return an invalidated slot to the free list. */
    void freeSlot(std::uint32_t slot);

    /** invalidateSlot + freeSlot. */
    void releaseSlot(std::uint32_t slot);

    std::vector<Node> heap_;
    /** Sorted drained window, consumed front to back. */
    std::vector<Node> run_;
    std::size_t runPos_ = 0;
    /** Drain staging buffer; swapped with run_, so the two ping-pong
     * and steady state allocates nothing. */
    std::vector<Node> scratch_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::size_t slotCount_ = 0;
    std::uint32_t freeHead_ = kNoSlot;
    std::size_t live_ = 0;
    std::uint64_t nextSeq_ = 1; // 0 marks a free slab slot
    /** Exact count of stale nodes per structure (see kInHeap). */
    std::size_t staleHeap_ = 0;
    std::size_t staleWheel_ = 0;
    /** Wheel-block backing store; freed wholesale with the queue. */
    Arena arena_{16 * 1024};
    TimerWheel wheel_{arena_};
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_EVENT_QUEUE_HH
