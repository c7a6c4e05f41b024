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
 * wake-up that is due strictly earlier than every pending event would
 * be the very next event popped, so it resumes in place — the clock
 * advances and the coroutine continues without a schedule, pop and
 * resume. Two wake-ups do so: a delay, and a Join's waiter when its
 * last child finishes (due at the current instant). Either does so
 * only when the run()/runUntil() drain loop resumed the coroutine that
 * wakes it directly (no inline task start is under way that has work
 * of its own left at the current instant, no step(), no conflict
 * tracking), the wake time is within the run's deadline and the event
 * has resumed fewer than kMaxRunAheadStreak wake-ups in place so far.
 * It consumes the event's sequence number, so every later event is
 * numbered, and ordered, exactly as if the wake-up had been queued.
 */

#ifndef MOLECULE_SIM_SIMULATION_HH
#define MOLECULE_SIM_SIMULATION_HH

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/analysis.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace molecule::sim {

class Join;

namespace detail {

/** Links a scheduled callback's frame into its Simulation's list of
 * callbacks not yet run; the Simulation destroys those with itself. */
struct CallbackLink
{
    CallbackLink *prev = this;
    CallbackLink *next = this;
    std::coroutine_handle<> frame{};

    void
    linkAfter(CallbackLink &head)
    {
        prev = &head;
        next = head.next;
        head.next->prev = this;
        head.next = this;
    }
};

/**
 * The coroutine Simulation::schedule queues for a callable: a frame
 * from the FramePool that holds an @p F, calls it once when the queue
 * resumes the frame and then frees itself. The callable lives in the
 * promise, not in a by-value parameter (task.hh rule 1).
 */
template <typename F>
struct CallbackFrame
{
    struct promise_type : CallbackLink
    {
        static void *
        operator new(std::size_t bytes)
        {
            return FramePool::allocate(bytes);
        }

        static void
        operator delete(void *frame, std::size_t bytes) noexcept
        {
            FramePool::deallocate(frame, bytes);
        }

        ~promise_type()
        {
            prev->next = next;
            next->prev = prev;
        }

        CallbackFrame
        get_return_object() noexcept
        {
            return {std::coroutine_handle<promise_type>::from_promise(
                *this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() noexcept {}

        void
        unhandled_exception() noexcept
        {
            panic("exception escaped a scheduled callback");
        }

        std::optional<F> fn;
    };

    /** Calls the stored callable as the queue resumes the frame. */
    struct Run
    {
        promise_type *promise = nullptr;

        bool await_ready() const noexcept { return false; }

        bool
        await_suspend(std::coroutine_handle<promise_type> h) noexcept
        {
            promise = &h.promise();
            return false;
        }

        void await_resume() const { (*promise->fn)(); }
    };

    std::coroutine_handle<promise_type> handle;
};

template <typename F>
CallbackFrame<F>
callbackFrame()
{
    co_await typename CallbackFrame<F>::Run{};
}

} // namespace detail

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

    /** Destroys the callbacks that never ran, with what they hold. */
    ~Simulation()
    {
        while (callbacks_.next != &callbacks_)
            callbacks_.next->frame.destroy();
    }

    /**
     * Call @p fn once, @p after from now. The event is a coroutine
     * frame holding @p fn (detail::CallbackFrame), so the queue sees a
     * handle like any other.
     */
    template <typename F>
    void
    schedule(SimTime after, F &&fn)
    {
        const auto frame =
            detail::callbackFrame<std::decay_t<F>>().handle;
        auto &promise = frame.promise();
        promise.fn.emplace(std::forward<F>(fn));
        promise.frame = frame;
        promise.linkAfter(callbacks_);
        events_.schedule(now_ + after, frame);
        noteScheduled();
    }

    /** Start a root task; its frame self-destroys when it completes. */
    void
    spawn(Task<> task)
    {
        startInline(task, nullptr);
    }

    /** Start a root task whose result goes to @p sink as it
     * finishes, from its final suspend (at once for a ready task).
     * @p sink must outlive the task. */
    template <typename T>
    void
    spawn(Task<T> task, detail::ResultSink<T> &sink)
    {
        startInline(task, &sink);
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

    /** Run until the event set drains. @return final simulated time. */
    SimTime run();

    /** Run until the clock would pass @p deadline (absolute). */
    SimTime runUntil(SimTime deadline);

    /** Fire exactly one event if present. @retval false queue was empty. */
    bool step();

    /** Number of pending events (diagnostics). */
    std::size_t pendingEvents() const { return events_.size(); }

    /** Events fired from the queue so far; a wake-up that ran ahead
     * is not one. */
    std::uint64_t eventsFired() const { return events_.firedCount(); }

    /** Queued events the event queue parked in its timer wheel so
     * far (DESIGN.md §4d); the rest went to its near array. */
    std::uint64_t wheelParks() const { return events_.wheelParks(); }

    /** DelayAwaiter suspensions so far, run ahead or queued. */
    std::uint64_t delaySuspensions() const { return delaySuspensions_; }

    /** Delays resumed in place (run-ahead) so far; divided by
     * delaySuspensions() it is the in-place share. */
    std::uint64_t delaysInPlace() const { return delaysInPlace_; }

    /**
     * Most wake-ups (delays and Join waiters) one fired event may
     * resume in place in a row. Each resumes inside the frame that
     * fired the event, and an unoptimised build does not turn the
     * symmetric transfers that follow (a finished child task resuming
     * its awaiter) into tail calls, so an unbounded streak, such as a
     * closed loop of invokes, overflows the stack. The next wake-up is
     * queued.
     */
    static constexpr std::uint32_t kMaxRunAheadStreak = 256;

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
     * DelayAwaiter::await_suspend: runs ahead (advances the clock,
     * returns false) when runAhead() allows; otherwise queues @p h at
     * the wake time and returns true. Inline, so a queued delay costs
     * one call, the queue's schedule().
     */
    bool
    suspendDelay(std::coroutine_handle<> h, SimTime amount)
    {
        ++delaySuspensions_;
        const SimTime wake = now_ + amount;
        if (runAhead(wake)) {
            now_ = wake;
            ++delaysInPlace_;
            return false;
        }
        events_.schedule(wake, h);
        noteScheduled();
        return true;
    }

    /** Join::childDone for the last child: resume @p waiter now when
     * runAhead() allows, else queue it at the current instant. */
    void wakeJoined(std::coroutine_handle<> waiter);

    /**
     * The run-ahead rule in this file's comment, for a wake-up due at
     * @p wake: true (and the event's sequence number consumed, the
     * streak grown) when it may resume in place.
     */
    bool
    runAhead(SimTime wake)
    {
        return wake <= runAheadLimit_ && inlineStarts_ == 0 && !log_ &&
               events_.precedesAll(wake) && extendStreak();
    }

    /** runAhead()'s last test, out of line: grow this event's streak
     * unless it is at its bound, and consume the sequence number. */
    bool extendStreak();

    /** Tell the detector about the event the queue just accepted. */
    void
    noteScheduled()
    {
        if (log_)
            log_->noteScheduled(events_.lastScheduledSeq(), now_.raw());
    }

    EventQueue events_;
    /** Head of the callbacks scheduled and not yet run. */
    detail::CallbackLink callbacks_;
    SimTime now_{0};
    Rng rng_;
    std::unique_ptr<analysis::AccessLog> log_;
    /** Latest wake time a delay may run ahead to: the deadline of the
     * drain loop under way, kNoRunAhead outside one. */
    SimTime runAheadLimit_ = kNoRunAhead;
    /** Tasks being started inline right now (startInline nesting). */
    std::uint32_t inlineStarts_ = 0;
    std::uint64_t delaySuspensions_ = 0;
    std::uint64_t delaysInPlace_ = 0;
    /** The current run-ahead streak (delays and Join wake-ups): the
     * event it runs under (firedCount()) and its length. */
    std::uint64_t streakEvent_ = 0;
    std::uint32_t streak_ = 0;
};

static_assert(std::is_trivially_copyable_v<Simulation::DelayAwaiter>,
              "leaf costs return DelayAwaiter by value");

} // namespace molecule::sim

#endif // MOLECULE_SIM_SIMULATION_HH
