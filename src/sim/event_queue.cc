#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace molecule::sim {

namespace {

/** 4-ary heap layout: children of i at 4i+1..4i+4, parent (i-1)/4. */
constexpr std::size_t kArity = 4;

} // namespace

void
EventQueue::place(const Node &n, Slot &s)
{
    // Tiny queues stay heap-only: a handful of events sift in a couple
    // of compares, and keeping the wheel cold makes an idle/shallow
    // simulation cost nothing extra. Past the threshold, short- and
    // medium-delay events park in O(1); the wheel refuses events
    // behind the drained frontier or beyond its horizon.
    if (live_ > kDirectHeapThreshold && wheel_.insert(n)) {
        s.nextFree = kInWheel;
        return;
    }
    s.nextFree = kInHeap;
    heap_.push_back(n);
    siftUp(heap_.size() - 1);
}

EventId
EventQueue::schedule(SimTime when, InlineCallback fn)
{
    const std::uint32_t slot = acquireSlot();
    Slot &s = slotAt(slot);
    s.fn = std::move(fn);
    s.seq = nextSeq_++;
    ++live_;
    place(Node{when.raw(), s.seq, slot}, s);
    return (EventId(s.generation) << 32) | slot;
}

EventId
EventQueue::schedule(SimTime when, std::coroutine_handle<> h)
{
    const std::uint32_t slot = acquireSlot();
    Slot &s = slotAt(slot);
    s.fn.assignCoroutine(h);
    s.seq = nextSeq_++;
    ++live_;
    place(Node{when.raw(), s.seq, slot}, s);
    return (EventId(s.generation) << 32) | slot;
}

void
EventQueue::scheduleBatch(std::span<BatchEvent> events,
                          EventId *idsOut)
{
    for (BatchEvent &e : events) {
        const EventId id = schedule(e.when, std::move(e.fn));
        if (idsOut != nullptr)
            *idsOut++ = id;
    }
}

void
EventQueue::scheduleBatch(SimTime when,
                          std::span<const std::coroutine_handle<>> hs)
{
    for (const std::coroutine_handle<> h : hs)
        schedule(when, h);
}

bool
EventQueue::cancel(EventId id)
{
    // Only events that are still pending may be cancelled; ids of fired
    // or already-cancelled events fail the generation check (recycling
    // a slot bumps its generation) so size() stays exact.
    const std::uint32_t slot = std::uint32_t(id & 0xffffffffu);
    const std::uint32_t gen = std::uint32_t(id >> 32);
    if (slot >= slotCount_ || slotAt(slot).generation != gen ||
        slotAt(slot).seq == 0)
        return false;
    Slot &s = slotAt(slot);
    const std::uint32_t side = s.nextFree;
    s.fn.reset();
    releaseSlot(slot); // clears seq: the parked node is now stale
    --live_;
    if (side == kInHeap) {
        ++staleHeap_;
        // The head can only have gone stale if it is this very node;
        // keep it live so accessors never see staleness there.
        if (!heap_.empty() && heap_.front().slot == slot)
            skipStale();
        if (staleHeap_ > std::max(live_, kCompactSlack))
            compact();
    } else if (side == kInWheel) {
        ++staleWheel_;
        // Wheel staleness is invisible to pops (stale nodes are
        // dropped for free during drains); sweeping only bounds
        // memory, so it can be lazier than heap compaction.
        if (staleWheel_ > std::max(4 * live_, kWheelSlack))
            staleWheel_ -= wheel_.sweep(
                [this](const Node &n) { return !stale(n); });
    }
    // side == kInRun: the run entry is skipped at the head for free,
    // and its storage is recycled at the next window drain.
    return true;
}

const EventQueue::Node *
EventQueue::minHead() const
{
    const Node *h =
        runPos_ < run_.size() ? &run_[runPos_] : nullptr;
    if (!heap_.empty() &&
        (h == nullptr || before(heap_.front(), *h)))
        h = &heap_.front();
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
    skipStale();
    while (runPos_ < run_.size() && stale(run_[runPos_]))
        ++runPos_;
    for (;;) {
        if (wheel_.empty())
            return;
        const Node *head = minHead();
        // Fast path: hint() is a lower bound on every parked event's
        // window start, so a strictly earlier live head may fire
        // without scanning the wheel. (Strict <: an equal-time wheel
        // event could carry a smaller sequence number.)
        if (head != nullptr && head->when < wheel_.hint())
            return;
        const TimerWheel::Earliest at = wheel_.locate();
        if (head != nullptr && head->when < at.ws)
            return;
        scratch_.clear();
        wheel_.drainBucket(at, scratch_);
        if (at.level == 0) {
            // No live head precedes this window, and run entries all
            // sit behind the frontier — the run is fully consumed
            // here, so its storage recycles into the next window.
            run_.clear();
            runPos_ = 0;
            std::size_t keep = 0;
            for (const Node &n : scratch_) {
                if (stale(n)) {
                    --staleWheel_;
                    continue;
                }
                slotAt(n.slot).nextFree = kInRun;
                scratch_[keep++] = n;
            }
            scratch_.resize(keep);
            sortNodes(scratch_);
            run_.swap(scratch_);
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
                if (stale(n)) {
                    --staleWheel_;
                    continue;
                }
                if (!wheel_.insert(n)) {
                    slotAt(n.slot).nextFree = kInHeap;
                    heap_.push_back(n);
                    siftUp(heap_.size() - 1);
                }
            }
        }
    }
}

SimTime
EventQueue::nextTime() const
{
    MOLECULE_ASSERT(live_ > 0, "nextTime() on empty event queue");
    // Logically const: settling reshuffles internal storage but never
    // changes the observable event sequence.
    const_cast<EventQueue *>(this)->settle();
    const Node *head = minHead();
    MOLECULE_ASSERT(head != nullptr, "settled queue lost its head");
    return SimTime(head->when);
}

std::uint64_t
EventQueue::nextEventSeq() const
{
    MOLECULE_ASSERT(live_ > 0, "nextEventSeq() on empty event queue");
    const_cast<EventQueue *>(this)->settle();
    const Node *head = minHead();
    MOLECULE_ASSERT(head != nullptr, "settled queue lost its head");
    return head->seq;
}

std::uint64_t
EventQueue::seqOfEvent(EventId id) const
{
    const std::uint32_t slot = std::uint32_t(id & 0xffffffffu);
    const std::uint32_t gen = std::uint32_t(id >> 32);
    if (slot >= slotCount_ || slotAt(slot).generation != gen)
        return 0;
    return slotAt(slot).seq;
}

bool
EventQueue::takeHead(std::int64_t until, Node &top)
{
    settle();
    const bool fromRun =
        runPos_ < run_.size() &&
        (heap_.empty() || before(run_[runPos_], heap_.front()));
    top = fromRun ? run_[runPos_] : heap_.front();
    if (top.when > until)
        return false;
    if (fromRun) {
        ++runPos_;
    } else {
        const Node last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_.front() = last;
            siftDown(0);
        }
        skipStale();
    }
    --live_;
    return true;
}

void
EventQueue::fire(const Node &top)
{
    // The event is out of the queue; invalidate its id (a callback
    // cancelling the event that is firing must get `false`), run the
    // callback from its slot, and only then recycle the slot, so a
    // same-slot reschedule from inside the callback cannot clobber
    // the running callable.
    Slot &s = slotAt(top.slot);
    invalidateSlot(s);
    s.fn();
    s.fn.reset();
    freeSlot(top.slot);
}

std::pair<SimTime, InlineCallback>
EventQueue::popNext()
{
    MOLECULE_ASSERT(live_ > 0, "popNext() on empty event queue");
    Node top;
    takeHead(kNoDeadline, top);
    InlineCallback fn = std::move(slotAt(top.slot).fn);
    releaseSlot(top.slot);
    return {SimTime(top.when), std::move(fn)};
}

void
EventQueue::fireNext()
{
    MOLECULE_ASSERT(live_ > 0, "fireNext() on empty event queue");
    Node top;
    takeHead(kNoDeadline, top);
    fire(top);
}

std::size_t
EventQueue::drain(SimTime &clock, SimTime deadline,
                  std::size_t maxEvents)
{
    std::size_t fired = 0;
    Node top;
    while (fired < maxEvents && live_ > 0 &&
           takeHead(deadline.raw(), top)) {
        // The clock must advance before the callback runs so resumed
        // coroutines observe the firing time.
        clock = SimTime(top.when);
        fire(top);
        ++fired;
    }
    return fired;
}

void
EventQueue::skipStale()
{
    while (!heap_.empty() && stale(heap_.front())) {
        --staleHeap_;
        const Node last = heap_.back();
        heap_.pop_back();
        if (heap_.empty())
            break;
        heap_.front() = last;
        siftDown(0);
    }
}

void
EventQueue::compact()
{
    // Partition out stale nodes, then heapify bottom-up: O(heap size),
    // amortized against the cancels that created the staleness.
    std::size_t kept = 0;
    for (const Node &n : heap_) {
        if (!stale(n))
            heap_[kept++] = n;
    }
    heap_.resize(kept);
    staleHeap_ = 0;
    if (kept < 2)
        return;
    for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;)
        siftDown(i);
}

void
EventQueue::siftUp(std::size_t pos)
{
    const Node n = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / kArity;
        if (!before(n, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = n;
}

void
EventQueue::siftDown(std::size_t pos)
{
    const Node n = heap_[pos];
    const std::size_t count = heap_.size();
    for (;;) {
        const std::size_t first = pos * kArity + 1;
        if (first >= count)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, count);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], n))
            break;
        heap_[pos] = heap_[best];
        pos = best;
    }
    heap_[pos] = n;
}

std::uint32_t
EventQueue::growSlot()
{
    MOLECULE_ASSERT(slotCount_ < kInRun, "event slab exhausted");
    if (slotCount_ == chunks_.size() * kChunkSize)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    return std::uint32_t(slotCount_++);
}

void
EventQueue::invalidateSlot(Slot &s)
{
    s.seq = 0; // stale marker: parked nodes pointing here are dead
    ++s.generation;
    // Generation 0 would collide with never-issued id 0 after a wrap.
    if (s.generation == 0)
        s.generation = 1;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    invalidateSlot(slotAt(slot));
    freeSlot(slot);
}

} // namespace molecule::sim
