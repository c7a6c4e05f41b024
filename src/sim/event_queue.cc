#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace molecule::sim {

void
EventQueue::schedule(SimTime when, std::coroutine_handle<> h)
{
    const std::int64_t t = when.raw();
    const std::uint64_t seq = nextSeq_++;
    const std::size_t count = near_.size();
    // The new node carries the largest sequence yet, so it precedes a
    // node iff its time is strictly earlier.
    if (count < kNearSize || t < near_[count - kNearSize].when) {
        // Backward shift: the nodes due no later than t move one up.
        // The node precedes the kNearSize-th earliest, so at most
        // kNearSize - 1 of them do. Its fields are stored where it
        // lands: a node built aside and copied whole would be loaded
        // wider than it was stored, stalling the store forwarding.
        near_.emplace_back();
        Node *a = near_.data();
        std::size_t j = count;
        while (j > 0 && a[j - 1].when <= t) {
            a[j] = a[j - 1];
            --j;
        }
        a[j].when = t;
        a[j].seq = seq;
        a[j].handle = h;
        // Counted on each path, apart from nextSeq_: GCC fuses two
        // adjacent counter increments into one 16-byte load and store,
        // and that load would stall behind a pop's 8-byte store.
        ++size_;
        return;
    }
    ++size_;
    const Node n{t, seq, h};
    if (wheel_.insert(n))
        ++wheelParks_;
    else
        insertNear(n);
}

void
EventQueue::insertNear(const Node &n)
{
    // Latest first: n goes in front of the first node due before it.
    near_.insert(std::upper_bound(near_.begin(), near_.end(), n,
                                  [](const Node &a, const Node &b) {
                                      return before(b, a);
                                  }),
                 n);
}

const EventQueue::Node *
EventQueue::minHead() const
{
    const Node *h =
        runPos_ < run_.size() ? &run_[runPos_] : nullptr;
    if (!near_.empty() && (h == nullptr || before(near_.back(), *h)))
        h = &near_.back();
    return h;
}

void
EventQueue::sortNodes(std::vector<Node> &nodes)
{
    const std::size_t n = nodes.size();
    if (n < 2)
        return;
    if (n <= 32) {
        // Insertion sort: adaptive, allocation-free, and the drained
        // buckets of a time-ordered schedule arrive already sorted.
        for (std::size_t i = 1; i < n; ++i) {
            const Node v = nodes[i];
            std::size_t j = i;
            while (j > 0 && before(v, nodes[j - 1])) {
                nodes[j] = nodes[j - 1];
                --j;
            }
            nodes[j] = v;
        }
        return;
    }
    if (std::is_sorted(nodes.begin(), nodes.end(), &before))
        return;
    std::sort(nodes.begin(), nodes.end(), &before);
}

void
EventQueue::settle()
{
    for (;;) {
        if (wheel_.empty())
            return;
        const Node *head = minHead();
        // Fast path: hint() is a lower bound on every parked event's
        // window start, so a strictly earlier head may fire without
        // scanning the wheel. (Strict <: an equal-time wheel event
        // could carry a smaller sequence number.)
        if (head != nullptr && head->when < wheel_.hint())
            return;
        const TimerWheel::Earliest at = wheel_.locate();
        if (head != nullptr && head->when < at.ws)
            return;
        scratch_.clear();
        wheel_.drainBucket(at, scratch_);
        if (at.level == 0) {
            // No head precedes this window, and run entries all sit
            // behind the frontier — the run is fully consumed here,
            // so its storage recycles into the next window.
            sortNodes(scratch_);
            run_.swap(scratch_);
            runPos_ = 0;
            const std::int64_t cap =
                at.ws +
                (std::int64_t(1) << TimerWheel::kWindowShift);
            wheel_.advanceBase(cap);
            wheel_.raiseHint(cap);
        } else {
            // Cascade: the coarse window opens; its events re-insert
            // one level finer (their window starts at or after the
            // new frontier, so each lands exactly one level down).
            wheel_.advanceBase(at.ws);
            for (const Node &n : scratch_) {
                if (!wheel_.insert(n))
                    insertNear(n);
            }
        }
    }
}

SimTime
EventQueue::nextTime() const
{
    MOLECULE_ASSERT(size_ > 0, "nextTime() on empty event queue");
    // Logically const: settling reshuffles internal storage but never
    // changes the observable event sequence.
    const_cast<EventQueue *>(this)->settle();
    return SimTime(minHead()->when);
}

std::uint64_t
EventQueue::nextEventSeq() const
{
    MOLECULE_ASSERT(size_ > 0, "nextEventSeq() on empty event queue");
    const_cast<EventQueue *>(this)->settle();
    return minHead()->seq;
}

bool
EventQueue::takeHead(std::int64_t until, Node &top)
{
    settle();
    const bool fromRun =
        runPos_ < run_.size() &&
        (near_.empty() || before(run_[runPos_], near_.back()));
    top = fromRun ? run_[runPos_] : near_.back();
    if (top.when > until)
        return false;
    if (fromRun)
        ++runPos_;
    else
        near_.pop_back();
    --size_;
    return true;
}

std::pair<SimTime, std::coroutine_handle<>>
EventQueue::popNext()
{
    MOLECULE_ASSERT(size_ > 0, "popNext() on empty event queue");
    Node top;
    takeHead(kNoDeadline, top);
    return {SimTime(top.when), top.handle};
}

void
EventQueue::fireNext()
{
    MOLECULE_ASSERT(size_ > 0, "fireNext() on empty event queue");
    Node top;
    takeHead(kNoDeadline, top);
    ++fired_;
    top.handle.resume();
}

std::size_t
EventQueue::drain(SimTime &clock, SimTime deadline,
                  std::size_t maxEvents)
{
    std::size_t fired = 0;
    Node top;
    while (fired < maxEvents && size_ > 0 &&
           takeHead(deadline.raw(), top)) {
        // The clock must advance before the coroutine resumes so it
        // observes the firing time.
        clock = SimTime(top.when);
        ++fired_;
        top.handle.resume();
        ++fired;
    }
    return fired;
}

} // namespace molecule::sim
