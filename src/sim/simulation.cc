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
Simulation::suspendDelay(std::coroutine_handle<> h, SimTime amount)
{
    ++delaySuspensions_;
    const SimTime wake = now_ + amount;
    // Strictly earlier than every pending event, the wake-up would be
    // the next event the drain loop pops, and the coroutine the loop
    // resumed has nothing left to run behind it: resume in place.
    if (wake <= runAheadLimit_ && inlineStarts_ == 0 && !log_ &&
        events_.precedesAll(wake)) {
        events_.skipSeq();
        now_ = wake;
        ++delaysInPlace_;
        return false;
    }
    // The handle is stored directly in the event slot: no closure, no
    // allocation.
    events_.schedule(wake, h);
    noteScheduled();
    return true;
}

} // namespace molecule::sim
