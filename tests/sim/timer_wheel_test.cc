/**
 * @file
 * Calendar-wheel tests (sim/timer_wheel.hh + EventQueue integration).
 *
 * The wheel itself never decides firing order — EventQueue does — so
 * these tests pin two layers: the raw TimerWheel contract (insert
 * refusal rules, earliest-window location, drain order) and the
 * queue-level determinism invariants the wheel must not disturb:
 * same-tick FIFO across heap/wheel/run, order across a cascade, the
 * empty()/drain() interplay and a steady state that allocates
 * nothing. A randomized model check compares the full pop sequence
 * against a sorted reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../core/count_new.hh"
#include "probe.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"
#include "sim/timer_wheel.hh"

namespace {

using namespace molecule;
using sim::EventNode;
using sim::EventQueue;
using sim::SimTime;
using sim::TimerWheel;
using test::onResume;
using test::Probe;
using test::Tags;

TEST(TimerWheel, InsertRefusalRules)
{
    TimerWheel wheel;

    // In range: level 0 (short), level 1 (ms), level 2 (hundreds ms).
    EXPECT_TRUE(wheel.insert(EventNode{1000, 1, {}}));
    EXPECT_TRUE(wheel.insert(EventNode{10'000'000, 2, {}}));
    EXPECT_TRUE(wheel.insert(EventNode{1'000'000'000, 3, {}}));
    EXPECT_EQ(wheel.entries(), 3u);

    // Past the ~17.2 s horizon: refused, caller keeps it.
    EXPECT_FALSE(
        wheel.insert(EventNode{20'000'000'000, 4, {}}));

    // Behind the drained frontier: refused.
    wheel.advanceBase(std::int64_t(1) << 16);
    EXPECT_FALSE(wheel.insert(EventNode{100, 5, {}}));
    EXPECT_EQ(wheel.entries(), 3u);
}

TEST(TimerWheel, LocateAndDrainPreserveInsertionOrder)
{
    TimerWheel wheel;

    // Three nodes in one level-0 window, inserted out of time order:
    // drain must hand them back in INSERTION order (the queue sorts).
    ASSERT_TRUE(wheel.insert(EventNode{500, 7, {}}));
    ASSERT_TRUE(wheel.insert(EventNode{100, 8, {}}));
    ASSERT_TRUE(wheel.insert(EventNode{300, 9, {}}));

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

// Events spread over ~9.3 ms engage the wheel (> kDirectHeapThreshold)
// and park the later ones in level-1 buckets; by 4.2 ms those cascade
// to level 0. Every event fires once, in time order, across the
// cascade — also when new events join mid-way.
TEST(EventQueueWheel, CascadedEventsFireInTimeOrder)
{
    EventQueue q;
    Tags tag;
    for (int i = 0; i < 32; ++i)
        q.schedule(SimTime::microseconds(i * 300), tag(i));
    for (int i = 0; i < 15; ++i)
        q.fireNext();
    // Past the cascade: two land between parked events, one at a tie.
    q.schedule(SimTime::microseconds(20 * 300 + 1), tag(32));
    q.schedule(SimTime::microseconds(25 * 300), tag(33));
    while (!q.empty())
        q.fireNext();

    std::vector<int> want;
    for (int i = 0; i < 32; ++i) {
        want.push_back(i);
        if (i == 20)
            want.push_back(32);
        if (i == 25)
            want.push_back(33);
    }
    EXPECT_EQ(tag.log, want);
}

// Same-instant events must fire in scheduling order no matter which
// structure holds them: the first few go straight to the heap (tiny
// queue), the rest to the wheel, and far-future ones overflow the
// wheel horizon back into the heap.
TEST(EventQueueWheel, SameTickFifoAcrossHeapWheelAndOverflow)
{
    EventQueue q;
    Tags tag;

    // 40 events at the same instant: ~16 via the direct-heap path,
    // the rest via a wheel bucket.
    for (int i = 0; i < 40; ++i)
        q.schedule(SimTime::milliseconds(1), tag(i));
    // Two same-instant events past the wheel horizon (heap overflow).
    for (int i = 40; i < 42; ++i)
        q.schedule(SimTime::seconds(100), tag(i));

    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(tag.log.size(), 42u);
    for (int i = 0; i < 42; ++i)
        EXPECT_EQ(tag.log[std::size_t(i)], i) << "position " << i;
}

TEST(EventQueueWheel, EmptyAndDrainInteraction)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());

    SimTime clock;
    EXPECT_EQ(q.drain(clock, SimTime::seconds(1), 100), 0u);

    int fired = 0;
    auto count = [&] { ++fired; };
    Probe p = onResume(&count);
    for (int i = 0; i < 50; ++i)
        q.schedule(SimTime::microseconds(i * 200), p.handle());
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

// Deterministic pseudo-random schedule/pop mix, checked against a
// sorted reference model: the pop sequence (time, seq) must match a
// plain stable-sorted list exactly, whatever mix of heap, wheel
// levels and ready-run served each event.
TEST(EventQueueWheel, RandomizedModelCheck)
{
    EventQueue q;
    int fired = 0;
    auto count = [&] { ++fired; };
    Probe p = onResume(&count);
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
    };
    std::vector<Ref> model;
    std::vector<std::uint64_t> popped;

    std::int64_t now = 0;
    int pops = 0;
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
            q.schedule(sim::SimTime(when), p.handle());
            model.push_back(Ref{when, q.lastScheduledSeq()});
        } else {
            const sim::SimTime t = q.nextTime();
            const std::uint64_t seq = q.nextEventSeq();
            EXPECT_GE(t.raw(), now);
            now = t.raw();
            popped.push_back(seq);
            // Both pops take the same head.
            if (++pops % 2 == 0) {
                q.fireNext();
            } else {
                const auto [when, h] = q.popNext();
                EXPECT_EQ(when, t);
                EXPECT_EQ(h, p.handle());
            }
        }
    }
    while (!q.empty()) {
        popped.push_back(q.nextEventSeq());
        q.fireNext();
    }
    EXPECT_EQ(std::size_t(fired) + std::size_t(pops + 1) / 2,
              model.size());

    std::sort(model.begin(), model.end(),
              [](const Ref &a, const Ref &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });
    ASSERT_EQ(popped.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
        ASSERT_EQ(popped[i], model[i].seq) << "pop " << i;
}

// Timer churn behind long-lived parked events: once warm (wheel
// blocks pooled, run and heap buffers sized), scheduling and firing
// allocates nothing, and the wheel holds no more than the queue.
TEST(EventQueueWheel, SteadyChurnAllocatesNothing)
{
    EventQueue q;
    int fired = 0;
    auto count = [&] { ++fired; };
    Probe p = onResume(&count);
    for (int i = 0; i < 24; ++i)
        q.schedule(SimTime::seconds(1000), p.handle());
    for (int k = 0; k < 16; ++k)
        q.schedule(SimTime::milliseconds(1 + k), p.handle());

    auto churn = [&](int rounds) {
        for (int round = 0; round < rounds; ++round) {
            const SimTime now = q.nextTime();
            q.fireNext();
            q.schedule(now + SimTime::milliseconds(1 + round % 50),
                       p.handle());
        }
    };
    churn(2000);
    const std::uint64_t before = g_allocCount;
    churn(20000);
    const std::uint64_t allocs = g_allocCount - before;

    EXPECT_EQ(fired, 22000);
    EXPECT_EQ(q.size(), 40u);
    EXPECT_LE(q.wheelEntries(), q.size());
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: nothing was counted";
#endif
    EXPECT_EQ(allocs, 0u);
}

} // namespace
