/**
 * @file
 * The discrete-event simulation driver.
 *
 * A Simulation owns the virtual clock and the pending-event set, spawns
 * root coroutine tasks and provides the fundamental awaitable (delay).
 * Coroutine resumptions are funnelled through the event queue so
 * same-instant wakeups fire in a deterministic (time, sequence) order.
 *
 * One exception keeps that order and skips the queue: run-ahead. A
 * delay whose wake time is strictly earlier than every pending event
 * would be the very next event popped, so it resumes in place — the
 * clock advances and the coroutine continues without a schedule, pop
 * and resume. It does so only when the run()/runUntil() drain loop
 * resumed the coroutine directly (no inline task start is under way
 * that has work of its own left at the current instant, no step(), no
 * conflict tracking) and the wake time is within the run's deadline.
 * It consumes the event's sequence number, so every later event is
 * numbered, and ordered, exactly as if the delay had been queued.
 */

#ifndef MOLECULE_SIM_SIMULATION_HH
#define MOLECULE_SIM_SIMULATION_HH

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>

#include "sim/analysis.hh"
#include "sim/arena.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace molecule::sim {

class Join;

/**
 * Virtual-time executor for coroutine tasks.
 *
 * Typical use:
 * @code
 *   Simulation sim;
 *   sim.spawn(clientLoop(sim, ...));
 *   sim.run();                       // until no events remain
 * @endcode
 */
class Simulation
{
  public:
    /** @param seed seeds the simulation-owned RNG (determinism knob). */
    explicit Simulation(std::uint64_t seed = 42) : rng_(seed) {}

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** The simulation-owned deterministic RNG. */
    Rng &rng() { return rng_; }

    /**
     * Per-simulation bump arena for event-frequency scratch records
     * (span buffers, fault bookkeeping). Monotonic: freed wholesale
     * when the simulation is destroyed; see arena.hh for the lifetime
     * contract.
     */
    Arena &arena() { return arena_; }

    /** Schedule a callback @p after from now; returns a cancel id. */
    EventId
    schedule(SimTime after, InlineCallback fn)
    {
        const EventId id = events_.schedule(now_ + after, std::move(fn));
        noteScheduled();
        return id;
    }

    /** Cancel an event scheduled via schedule(). */
    bool
    cancel(EventId id)
    {
        if (log_) {
            const std::uint64_t seq = events_.seqOfEvent(id);
            const bool cancelled = events_.cancel(id);
            if (cancelled && seq != 0)
                log_->dropScheduled(seq);
            return cancelled;
        }
        return events_.cancel(id);
    }

    /** Start a root task; its frame self-destroys when it completes. */
    void
    spawn(Task<> task)
    {
        startInline(task, nullptr);
    }

    /**
     * Awaitable that suspends its awaiter for a fixed span of sim time.
     * Trivially copyable, so a plain function may build and return one
     * (a leaf cost, DESIGN.md §4b) and any co_await form is safe under
     * rule 3 of task.hh's GCC 12 notes.
     */
    class DelayAwaiter
    {
      public:
        DelayAwaiter(Simulation &sim, SimTime amount)
            : sim_(&sim), amount_(amount)
        {}

        bool await_ready() const noexcept { return false; }

        /** @retval false the delay ran ahead: resume at once, the
         * clock already at the wake time. A wrapper must return this
         * too; dropping it leaves the coroutine suspended with nothing
         * scheduled to resume it. */
        [[nodiscard]] bool
        await_suspend(std::coroutine_handle<> h) const
        {
            return sim_->suspendDelay(h, amount_);
        }

        void await_resume() const noexcept {}

      private:
        Simulation *sim_;
        SimTime amount_;
    };

    /** Awaitable that suspends the caller for @p amount of sim time. */
    DelayAwaiter
    delay(SimTime amount)
    {
        MOLECULE_ASSERT(amount >= SimTime(0),
                        "negative delay %lld ns",
                        static_cast<long long>(amount.raw()));
        return DelayAwaiter(*this, amount);
    }

    /** Resume @p h at the current instant, ordered behind pending work. */
    void
    scheduleResume(std::coroutine_handle<> h)
    {
        events_.schedule(now_, h);
        noteScheduled();
    }

    /**
     * Resume every handle in @p hs at the current instant, in array
     * order (consecutive sequence numbers — identical firing order to
     * calling scheduleResume in a loop, minus the per-call overhead).
     */
    void
    scheduleResumeBatch(std::span<const std::coroutine_handle<>> hs)
    {
        events_.scheduleBatch(now_, hs);
        noteScheduledBatch(hs.size());
    }

    /**
     * Schedule a batch of callbacks; each entry's `when` is a delay
     * relative to now (rewritten in place to the absolute time).
     * Entries fire in array order at equal timestamps.
     */
    void
    scheduleBatch(std::span<BatchEvent> events)
    {
        for (BatchEvent &e : events) {
            MOLECULE_ASSERT(e.when >= SimTime(0),
                            "negative batch delay %lld ns",
                            static_cast<long long>(e.when.raw()));
            e.when = now_ + e.when;
        }
        events_.scheduleBatch(events);
        noteScheduledBatch(events.size());
    }

    /** Run until the event set drains. @return final simulated time. */
    SimTime run();

    /** Run until the clock would pass @p deadline (absolute). */
    SimTime runUntil(SimTime deadline);

    /** Fire exactly one event if present. @retval false queue was empty. */
    bool step();

    /** Number of pending events (diagnostics). */
    std::size_t pendingEvents() const { return events_.size(); }

    /** DelayAwaiter suspensions so far, run ahead or queued. */
    std::uint64_t delaySuspensions() const { return delaySuspensions_; }

    /** Delays resumed in place (run-ahead) so far; divided by
     * delaySuspensions() it is the in-place share. */
    std::uint64_t delaysInPlace() const { return delaysInPlace_; }

    /** @name Sim-time conflict detector (see sim/analysis.hh) */
    ///@{

    /**
     * Start recording Tracked<T> accesses into a fresh AccessLog.
     * Events already pending when tracking starts are treated as
     * same-instant scheduled (never reported).
     */
    void
    enableConflictTracking(
        std::size_t capacity = analysis::AccessLog::kDefaultCapacity)
    {
        log_ = std::make_unique<analysis::AccessLog>(capacity);
    }

    void stopConflictTracking() { log_.reset(); }

    /** The access log, or nullptr when tracking is off. */
    analysis::AccessLog *accessLog() { return log_.get(); }
    ///@}

  private:
    friend class Join;

    /** Run-ahead limit outside a drain loop: no wake time is at or
     * below it, so no delay runs ahead. */
    static constexpr SimTime kNoRunAhead{
        std::numeric_limits<std::int64_t>::min()};

    /** Sets the run-ahead limit for one drain loop or step() and puts
     * the enclosing one's back after (run() may nest in a callback). */
    class RunAheadScope
    {
      public:
        RunAheadScope(Simulation &sim, SimTime limit)
            : sim_(sim), saved_(sim.runAheadLimit_)
        {
            sim.runAheadLimit_ = limit;
        }

        RunAheadScope(const RunAheadScope &) = delete;
        RunAheadScope &operator=(const RunAheadScope &) = delete;

        ~RunAheadScope() { sim_.runAheadLimit_ = saved_; }

      private:
        Simulation &sim_;
        SimTime saved_;
    };

    /**
     * Start @p task inline, up to its first suspension (spawn and
     * Join::spawn). The starter still has work at this instant, so no
     * delay may run ahead of it meanwhile.
     */
    template <typename T>
    void
    startInline(Task<T> &task, detail::DoneSink *sink)
    {
        ++inlineStarts_;
        task.detachAndStart(sink);
        --inlineStarts_;
    }

    /**
     * DelayAwaiter::await_suspend, out of line so each co_await site
     * grows by a call and a branch only. Runs ahead (advances the
     * clock, consumes the event's sequence number, returns false)
     * when the rule in this file's comment allows; otherwise queues
     * @p h at the wake time and returns true.
     */
    bool suspendDelay(std::coroutine_handle<> h, SimTime amount);

    /** Tell the detector about the event the queue just accepted. */
    void
    noteScheduled()
    {
        if (log_)
            log_->noteScheduled(events_.lastScheduledSeq(), now_.raw());
    }

    /** Tell the detector about the last @p n batch-accepted events. */
    void
    noteScheduledBatch(std::size_t n)
    {
        if (log_ && n > 0) {
            const std::uint64_t last = events_.lastScheduledSeq();
            for (std::size_t i = 0; i < n; ++i)
                log_->noteScheduled(last - n + 1 + i, now_.raw());
        }
    }

    EventQueue events_;
    SimTime now_{0};
    Rng rng_;
    Arena arena_;
    std::unique_ptr<analysis::AccessLog> log_;
    /** Latest wake time a delay may run ahead to: the deadline of the
     * drain loop under way, kNoRunAhead outside one. */
    SimTime runAheadLimit_ = kNoRunAhead;
    /** Tasks being started inline right now (startInline nesting). */
    std::uint32_t inlineStarts_ = 0;
    std::uint64_t delaySuspensions_ = 0;
    std::uint64_t delaysInPlace_ = 0;
};

static_assert(std::is_trivially_copyable_v<Simulation::DelayAwaiter>,
              "leaf costs return DelayAwaiter by value");

} // namespace molecule::sim

#endif // MOLECULE_SIM_SIMULATION_HH
