#include "sim/simulation.hh"

#include <limits>

namespace molecule::sim {

namespace {

/**
 * Events fired per drain() call before run() re-checks for exit. Large
 * enough to amortize the call, small enough that an interactive
 * watcher (runUntil deadline checks) stays responsive.
 */
constexpr std::size_t kDrainChunk = 1024;

} // namespace

SimTime
Simulation::run()
{
    // The conflict detector needs the per-event begin/scope hooks that
    // step() installs, so tracked runs take the slow path.
    if (log_) {
        while (step()) {
        }
        return now_;
    }
    const SimTime forever(std::numeric_limits<std::int64_t>::max());
    const RunAheadScope runAhead(*this, forever);
    while (events_.drain(now_, forever, kDrainChunk) > 0) {
    }
    return now_;
}

SimTime
Simulation::runUntil(SimTime deadline)
{
    if (log_) {
        while (!events_.empty() && events_.nextTime() <= deadline)
            step();
        if (now_ < deadline)
            now_ = deadline;
        return now_;
    }
    {
        const RunAheadScope runAhead(*this, deadline);
        while (events_.drain(now_, deadline, kDrainChunk) > 0) {
        }
    }
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulation::step()
{
    if (events_.empty())
        return false;
    // One call, one queue event: nothing the event resumes runs ahead.
    const RunAheadScope noRunAhead(*this, kNoRunAhead);
    // Advance the clock *before* running the callback so resumed
    // coroutines observe the firing time.
    now_ = events_.nextTime();
    if (log_) {
        log_->beginEvent(now_.raw(), events_.nextEventSeq());
        // Install the log for the duration of the callback so
        // Tracked<T> accesses anywhere in the model attribute to this
        // event; restored before returning (Scope nests for recursive
        // run() calls).
        analysis::AccessLog::Scope scope(log_.get());
        events_.fireNext();
        return true;
    }
    events_.fireNext();
    return true;
}

bool
Simulation::extendStreak()
{
    // runAhead()'s other tests passed: the wake-up would be the next
    // event the drain loop pops, and nothing runs behind it. Resume
    // in place unless this event's streak is at its bound.
    if (events_.firedCount() != streakEvent_) {
        streakEvent_ = events_.firedCount();
        streak_ = 0;
    }
    if (streak_ == kMaxRunAheadStreak)
        return false;
    ++streak_;
    events_.skipSeq();
    return true;
}

void
Simulation::wakeJoined(std::coroutine_handle<> waiter)
{
    // The last child is finishing and nothing runs behind it, so the
    // waiter's queued resume would be the next event: run it here.
    if (runAhead(now_)) {
        waiter.resume();
        return;
    }
    scheduleResume(waiter);
}

} // namespace molecule::sim
