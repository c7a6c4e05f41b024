/**
 * @file
 * Calendar-wheel tests (sim/timer_wheel.hh + EventQueue integration).
 *
 * The wheel itself never decides firing order — EventQueue does — so
 * these tests pin two layers: the raw TimerWheel contract (insert
 * refusal rules, earliest-window location, drain order, sweeping) and
 * the queue-level determinism invariants the wheel must not disturb:
 * same-tick FIFO across heap/wheel/run, cancellation after a cascade,
 * EventId generation safety when wheel slots are recycled, and the
 * empty()/drain() interplay. A randomized model check compares the
 * full pop sequence against a sorted reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"
#include "sim/timer_wheel.hh"

namespace {

using namespace molecule;
using sim::EventNode;
using sim::EventQueue;
using sim::SimTime;
using sim::TimerWheel;

TEST(TimerWheel, InsertRefusalRules)
{
    TimerWheel wheel;

    // In range: level 0 (short), level 1 (ms), level 2 (hundreds ms).
    EXPECT_TRUE(wheel.insert(EventNode{1000, 1, 0}));
    EXPECT_TRUE(wheel.insert(EventNode{10'000'000, 2, 1}));
    EXPECT_TRUE(wheel.insert(EventNode{1'000'000'000, 3, 2}));
    EXPECT_EQ(wheel.entries(), 3u);

    // Past the ~17.2 s horizon: refused, caller keeps it.
    EXPECT_FALSE(
        wheel.insert(EventNode{20'000'000'000, 4, 3}));

    // Behind the drained frontier: refused.
    wheel.advanceBase(std::int64_t(1) << 16);
    EXPECT_FALSE(wheel.insert(EventNode{100, 5, 4}));
    EXPECT_EQ(wheel.entries(), 3u);
}

TEST(TimerWheel, LocateAndDrainPreserveInsertionOrder)
{
    TimerWheel wheel;

    // Three nodes in one level-0 window, inserted out of time order:
    // drain must hand them back in INSERTION order (the queue sorts).
    ASSERT_TRUE(wheel.insert(EventNode{500, 7, 0}));
    ASSERT_TRUE(wheel.insert(EventNode{100, 8, 1}));
    ASSERT_TRUE(wheel.insert(EventNode{300, 9, 2}));

    const TimerWheel::Earliest at = wheel.locate();
    EXPECT_EQ(at.level, 0);
    EXPECT_EQ(at.ws, 0);

    std::vector<EventNode> out;
    EXPECT_EQ(wheel.drainBucket(at, out), 3u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].seq, 7u);
    EXPECT_EQ(out[1].seq, 8u);
    EXPECT_EQ(out[2].seq, 9u);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SweepDropsDeadNodesAndCompactsChains)
{
    TimerWheel wheel;

    // Enough nodes in one bucket to span several 9-node blocks.
    for (std::uint64_t i = 0; i < 40; ++i)
        ASSERT_TRUE(wheel.insert(EventNode{100, i, std::uint32_t(i)}));
    ASSERT_EQ(wheel.entries(), 40u);

    const std::size_t dropped =
        wheel.sweep([](const EventNode &n) { return n.seq % 3 == 0; });
    EXPECT_EQ(dropped, 26u);
    EXPECT_EQ(wheel.entries(), 14u);

    std::vector<EventNode> out;
    wheel.drainBucket(wheel.locate(), out);
    ASSERT_EQ(out.size(), 14u);
    // Survivors keep their relative insertion order.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_LT(out[i - 1].seq, out[i].seq);
}

// Cancel an event whose node has already cascaded from a coarse
// level into a finer one: the cancel must take effect (O(1), lazy)
// and the event must not fire.
TEST(EventQueueWheel, CancelAfterCascade)
{
    EventQueue q;
    std::vector<int> fired;

    // 32 live events engage the wheel (> kDirectHeapThreshold); the
    // spread over ~9.3 ms puts the later ones in level-1 buckets.
    sim::EventId target = 0;
    for (int i = 0; i < 32; ++i) {
        const auto id = q.schedule(SimTime::microseconds(i * 300),
                                   [&fired, i] { fired.push_back(i); });
        if (i == 20) // 6 ms: lives in a level-1 bucket initially
            target = id;
    }

    // Fire the first 15 events; by 4.2 ms the level-1 bucket holding
    // the 6 ms event has cascaded to level 0.
    for (int i = 0; i < 15; ++i)
        q.fireNext();
    EXPECT_TRUE(q.cancel(target));
    EXPECT_FALSE(q.cancel(target)); // already cancelled

    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(fired.size(), 31u);
    EXPECT_EQ(std::find(fired.begin(), fired.end(), 20), fired.end());
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
}

// Same-instant events must fire in scheduling order no matter which
// structure holds them: the first few go straight to the heap (tiny
// queue), the rest to the wheel, and far-future ones overflow the
// wheel horizon back into the heap.
TEST(EventQueueWheel, SameTickFifoAcrossHeapWheelAndOverflow)
{
    EventQueue q;
    std::vector<int> order;

    // 40 events at the same instant: ~16 via the direct-heap path,
    // the rest via a wheel bucket.
    for (int i = 0; i < 40; ++i)
        q.schedule(SimTime::milliseconds(1),
                   [&order, i] { order.push_back(i); });
    // Two same-instant events past the wheel horizon (heap overflow).
    for (int i = 40; i < 42; ++i)
        q.schedule(SimTime::seconds(100),
                   [&order, i] { order.push_back(i); });

    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(order.size(), 42u);
    for (int i = 0; i < 42; ++i)
        EXPECT_EQ(order[std::size_t(i)], i) << "position " << i;
}

// A cancelled wheel event frees its slab slot; the next schedule may
// reuse the slot while the stale node still sits in a bucket. The
// generation tag must reject the old id and honor the new one.
TEST(EventQueueWheel, EventIdAbaOnRecycledWheelSlot)
{
    EventQueue q;
    int fired = 0;

    // Engage the wheel, then park a cancellable event in a bucket.
    for (int i = 0; i < 24; ++i)
        q.schedule(SimTime::microseconds(100 + i), [&] { ++fired; });
    const auto oldId =
        q.schedule(SimTime::milliseconds(2), [&] { ++fired; });
    ASSERT_TRUE(q.cancel(oldId));

    // Reuses the freed slot (LIFO free list) while the stale node is
    // still parked in the wheel bucket.
    const auto newId =
        q.schedule(SimTime::milliseconds(3), [&] { ++fired; });
    EXPECT_EQ(std::uint32_t(oldId), std::uint32_t(newId))
        << "test premise: slot is recycled";
    EXPECT_NE(oldId, newId) << "generation must differ";

    EXPECT_FALSE(q.cancel(oldId)) << "stale id must be rejected";
    EXPECT_EQ(q.seqOfEvent(oldId), 0u);
    EXPECT_NE(q.seqOfEvent(newId), 0u);

    EXPECT_TRUE(q.cancel(newId));
    while (!q.empty())
        q.fireNext();
    EXPECT_EQ(fired, 24);
}

TEST(EventQueueWheel, EmptyAndDrainInteraction)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());

    SimTime clock;
    EXPECT_EQ(q.drain(clock, SimTime::seconds(1), 100), 0u);

    int fired = 0;
    for (int i = 0; i < 50; ++i)
        q.schedule(SimTime::microseconds(i * 200), [&] { ++fired; });
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 50u);

    // Partial drain by count: exactly K events, clock follows.
    EXPECT_EQ(q.drain(clock, SimTime::seconds(1), 20), 20u);
    EXPECT_EQ(fired, 20);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(clock, SimTime::microseconds(19 * 200));
    EXPECT_EQ(q.nextTime(), SimTime::microseconds(20 * 200));

    // Partial drain by deadline: events past it stay queued.
    EXPECT_EQ(q.drain(clock, SimTime::microseconds(30 * 200), 100),
              11u);
    EXPECT_EQ(fired, 31);

    // Drain the rest; empty() flips and further drains are no-ops.
    EXPECT_EQ(q.drain(clock, SimTime::seconds(1), 100), 19u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.drain(clock, SimTime::seconds(1), 100), 0u);
    EXPECT_EQ(fired, 50);
}

// Deterministic pseudo-random schedule/cancel/pop mix, checked
// against a sorted reference model: the pop sequence (time, seq)
// must match a plain stable-sorted list exactly, whatever mix of
// heap, wheel levels and ready-run served each event.
TEST(EventQueueWheel, RandomizedModelCheck)
{
    EventQueue q;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    struct Ref
    {
        std::int64_t when;
        std::uint64_t seq;
        bool cancelled = false;
    };
    std::vector<Ref> model;
    std::vector<std::pair<sim::EventId, std::size_t>> cancellable;
    std::vector<std::uint64_t> popped;

    std::int64_t now = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t r = next();
        if (r % 100 < 70 || q.empty()) {
            // Delays spanning direct-heap, all wheel levels and the
            // past-horizon overflow path.
            static constexpr std::int64_t kSpans[] = {
                5'000,          // level 0
                3'000'000,      // level 1
                900'000'000,    // level 2
                30'000'000'000, // past horizon -> heap
            };
            const std::int64_t span = kSpans[next() % 4];
            const std::int64_t when =
                now + std::int64_t(next() % std::uint64_t(span));
            const auto id = q.schedule(sim::SimTime(when), [] {});
            model.push_back(Ref{when, q.lastScheduledSeq()});
            cancellable.push_back({id, model.size() - 1});
        } else if (r % 100 < 85 && !cancellable.empty()) {
            const std::size_t pick =
                std::size_t(next() % cancellable.size());
            const auto [id, refIdx] = cancellable[pick];
            if (q.cancel(id))
                model[refIdx].cancelled = true;
            cancellable.erase(cancellable.begin() +
                              std::ptrdiff_t(pick));
        } else {
            const sim::SimTime t = q.nextTime();
            const std::uint64_t seq = q.nextEventSeq();
            EXPECT_GE(t.raw(), now);
            now = t.raw();
            popped.push_back(seq);
            auto [when, fn] = q.popNext();
            EXPECT_EQ(when, t);
        }
    }
    while (!q.empty()) {
        popped.push_back(q.nextEventSeq());
        q.popNext();
    }

    std::vector<Ref> live;
    for (const Ref &ref : model)
        if (!ref.cancelled)
            live.push_back(ref);
    std::sort(live.begin(), live.end(),
              [](const Ref &a, const Ref &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });
    ASSERT_EQ(popped.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        ASSERT_EQ(popped[i], live[i].seq) << "pop " << i;
}

// Cancel churn against parked wheel nodes must stay memory-bounded:
// the stale-node sweep keeps wheelEntries() proportional to the live
// count, and the slab never grows past the live high-water mark.
TEST(EventQueueWheel, MemoryBoundedUnderWheelCancelChurn)
{
    EventQueue q;
    for (int i = 0; i < 24; ++i)
        q.schedule(SimTime::seconds(1), [] {});

    sim::EventId pending[16] = {};
    for (int round = 0; round < 20000; ++round) {
        const int k = round % 16;
        if (pending[k] != 0)
            q.cancel(pending[k]);
        pending[k] = q.schedule(
            SimTime::milliseconds(1 + round % 50), [] {});
    }
    EXPECT_LE(q.wheelEntries(),
              4 * q.size() + 256 + 16)
        << "stale wheel nodes must be swept";
    EXPECT_LE(q.slabCapacity(), 256u);
    while (!q.empty())
        q.popNext();
}

} // namespace
