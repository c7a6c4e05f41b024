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

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/time.hh"
#include "sim/timer_wheel.hh"

namespace molecule::sim {

/**
 * Allocation-free pending-event set: a short sorted "near" array, a
 * sorted ready-run and a hierarchical calendar wheel. An event is the
 * coroutine it resumes, so a node is all there is to it:
 * `{when, seq, handle}`, 24 bytes, and firing one is a resume.
 *
 * - schedule: an event joins the near array (kept latest first, popped
 *   from the back) while it holds fewer than kNearSize nodes, or when
 *   the event precedes its kNearSize-th earliest node; it is placed by
 *   a backward shift of at most kNearSize nodes. Every other event
 *   parks in the wheel in O(1) (65.5 us level-0 windows; eight levels
 *   cover every SimTime). The wheel refuses only events behind its
 *   drained frontier, and those are binary-inserted into the array.
 * - pop:      the earlier of near-array back and run head. When the
 *   simulation reaches a level-0 window, its whole bucket is drained,
 *   sorted by (time, seq) — adaptive: already-sorted input is O(n) —
 *   and consumed front to back with no per-event shift.
 *
 * Events cannot be cancelled: nothing in the model takes one back, so
 * no node is ever stale and every head is live.
 *
 * Determinism: every pop takes the global (time, sequence) minimum of
 * run head and near head, and settle() drains a wheel window only
 * when no head precedes its start — so same-instant events fire in
 * scheduling order (FIFO) and the pop sequence is bit-identical to a
 * single sorted list.
 */
class EventQueue
{
  public:
    /**
     * Near-array bound: an event later than the array's kNearSize-th
     * earliest node parks in the wheel. The perfbench workloads keep
     * 2-60 events pending, the examples at most 120 and every tier-1
     * test but the wheel's own (1562) at most 83, so almost nothing
     * parks; 32 lost most of the gain on cold_churn, 128 gained
     * nothing over 64.
     */
    static constexpr std::size_t kNearSize = 64;

    /** Resume @p h at absolute time @p when. */
    void schedule(SimTime when, std::coroutine_handle<> h);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    /** Timestamp of the next event. Queue must not be empty. */
    SimTime nextTime() const;

    /** Schedule sequence of the next event (tie-break key). */
    std::uint64_t nextEventSeq() const;

    /** Sequence assigned by the most recent schedule() call. */
    std::uint64_t lastScheduledSeq() const { return nextSeq_ - 1; }

    /** Events fired so far (run-ahead streaks restart at each). */
    std::uint64_t firedCount() const { return fired_; }

    /**
     * True when an event scheduled now for @p when would be the next
     * one popped: @p when is strictly earlier than every event.
     * Settles only when the wheel's hint() cannot decide. Inline: a
     * delay that is queued pays for this check on top of schedule().
     */
    bool
    precedesAll(SimTime when)
    {
        const std::int64_t t = when.raw();
        if (!wheel_.empty() && t >= wheel_.hint())
            settle(); // the hint is too loose to rule the wheel out
        // Strict <: an equal-time event holds a smaller sequence
        // number.
        return (runPos_ == run_.size() || t < run_[runPos_].when) &&
               (near_.empty() || t < near_.back().when);
    }

    /**
     * Consume one sequence number without queueing anything: the
     * stand-in for an event that precedesAll() said would fire next
     * and that the caller ran at once. Later events are numbered as
     * if it had been scheduled and popped.
     */
    void skipSeq() { ++nextSeq_; }

    /**
     * Pop the next event without resuming it, so the caller can
     * advance its clock first. The queue does not count it as fired.
     */
    std::pair<SimTime, std::coroutine_handle<>> popNext();

    /**
     * Pop the next event and resume its coroutine. The event is out
     * of the queue before the coroutine runs, so it may schedule
     * freely. The caller must advance its clock to nextTime() first.
     */
    void fireNext();

    /**
     * Drain-K: fire up to @p maxEvents events whose time is at most
     * @p deadline, writing each event's timestamp to @p clock *before*
     * resuming its coroutine. This is run()'s hot loop without the
     * per-event function-call and empty-recheck overhead of step().
     * @return number of events fired.
     */
    std::size_t drain(SimTime &clock, SimTime deadline,
                      std::size_t maxEvents);

    /** Wheel nodes currently parked (diagnostics). */
    std::size_t wheelEntries() const { return wheel_.entries(); }

    /** Events schedule() parked in the wheel so far; a cascade to a
     * finer level is not a new park. */
    std::uint64_t wheelParks() const { return wheelParks_; }

  private:
    /** Near/wheel/run node, ordered by (when, seq). */
    using Node = EventNode;

    static bool
    before(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * Establish the settled invariant: the earlier of run head and
     * near head is the globally earliest event — every wheel window
     * starting no later has been drained or cascaded in. All
     * read-side accessors (nextTime, popNext, fireNext, drain) settle
     * first.
     */
    void settle();

    /** Earlier of run head / near head; null when both empty. */
    const Node *minHead() const;

    static constexpr std::int64_t kNoDeadline =
        std::numeric_limits<std::int64_t>::max();

    /**
     * The one pop: settle, then take the earlier of run head and near
     * head into @p top — unless it is due after @p until. Queue must
     * not be empty.
     * @retval false the head is due after @p until; nothing taken.
     * Inline (defined in event_queue.cc, its only user): the hot
     * loops must not pay a call per event.
     */
    inline bool takeHead(std::int64_t until, Node &top);

    /** Insert @p n into the near array at its sorted place, found by
     * binary search: the path of a node the wheel refused. */
    void insertNear(const Node &n);

    /** Sort a drained bucket by (when, seq); adaptive — the common
     * time-ordered-insert case costs one is-sorted scan. */
    static void sortNodes(std::vector<Node> &nodes);

    /** Sorted latest first, so the earliest node pops off the back. */
    std::vector<Node> near_;
    /** Sorted drained window, consumed front to back. */
    std::vector<Node> run_;
    std::size_t runPos_ = 0;
    /** Drain staging buffer; swapped with run_, so the two ping-pong
     * and steady state allocates nothing. */
    std::vector<Node> scratch_;
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t fired_ = 0;
    std::uint64_t wheelParks_ = 0;
    TimerWheel wheel_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_EVENT_QUEUE_HH
