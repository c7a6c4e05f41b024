/**
 * @file
 * Calendar-wheel tests (sim/timer_wheel.hh + EventQueue integration).
 *
 * The wheel itself never decides firing order — EventQueue does — so
 * these tests pin two layers: the raw TimerWheel contract (insert
 * refusal rules, earliest-window location, drain order) and the
 * queue-level determinism invariants the wheel must not disturb:
 * same-tick FIFO across near array/wheel/run, order across a cascade,
 * a far-future flood, the empty()/drain() interplay and a steady state
 * that allocates nothing. A randomized model check compares the full
 * pop sequence against a sorted reference. The queue parks an event in
 * the wheel only once kNearSize are pending, so each queue-level test
 * that means to reach the wheel schedules more and asserts that some
 * event parked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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

// The wheel has no horizon: it refuses only what lies behind its
// drained frontier.
TEST(TimerWheel, InsertRefusalRules)
{
    TimerWheel wheel;

    // Level 0 (short), level 1 (ms), level 2 (hundreds of ms), beyond
    // three levels' 17.2 s reach (20 s, 14 h) and up to SimTime's last
    // finest window.
    constexpr std::int64_t kAccepted[] = {
        1000,
        10'000'000,
        1'000'000'000,
        20'000'000'000,
        50'400'000'000'000,
        TimerWheel::kLastWindow - 1,
    };
    std::uint64_t seq = 0;
    for (const std::int64_t when : kAccepted)
        EXPECT_TRUE(wheel.insert(EventNode{when, ++seq, {}})) << when;
    EXPECT_EQ(wheel.entries(), 6u);
    // Its end would not be representable: refused.
    EXPECT_FALSE(wheel.insert(EventNode{TimerWheel::kLastWindow, ++seq, {}}));
    EXPECT_FALSE(wheel.insert(
        EventNode{std::numeric_limits<std::int64_t>::max(), ++seq, {}}));

    // The earliest occupied window is level 0's first, whatever the
    // coarser levels hold.
    const TimerWheel::Earliest at = wheel.locate();
    EXPECT_EQ(at.level, 0);
    EXPECT_EQ(at.ws, 0);

    // Behind the drained frontier: refused, the caller keeps it. At
    // the frontier: accepted.
    wheel.advanceBase(std::int64_t(1) << 16);
    EXPECT_FALSE(wheel.insert(EventNode{100, ++seq, {}}));
    EXPECT_FALSE(
        wheel.insert(EventNode{(std::int64_t(1) << 16) - 1, ++seq, {}}));
    EXPECT_TRUE(
        wheel.insert(EventNode{std::int64_t(1) << 16, ++seq, {}}));
    EXPECT_EQ(wheel.entries(), 7u);
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

// 128 events spread over ~38 ms: the first kNearSize stay in the near
// array, the later ones park in level-1 buckets and cascade to level
// 0 as time reaches them. Every event fires once, in time order,
// across the cascade — also when new events join mid-way, between
// parked events and at a tie with one.
TEST(EventQueueWheel, CascadedEventsFireInTimeOrder)
{
    constexpr int kEvents = 128;
    EventQueue q;
    Tags tag;
    for (int i = 0; i < kEvents; ++i)
        q.schedule(SimTime::microseconds(i * 300), tag(i));
    EXPECT_EQ(q.wheelEntries(), kEvents - EventQueue::kNearSize);
    for (int i = 0; i < 15; ++i)
        q.fireNext();
    q.schedule(SimTime::microseconds(20 * 300 + 1), tag(kEvents));
    q.schedule(SimTime::microseconds(100 * 300 + 1), tag(kEvents + 1));
    q.schedule(SimTime::microseconds(110 * 300), tag(kEvents + 2));
    while (!q.empty())
        q.fireNext();

    std::vector<int> want;
    for (int i = 0; i < kEvents; ++i) {
        want.push_back(i);
        if (i == 20)
            want.push_back(kEvents);
        if (i == 100)
            want.push_back(kEvents + 1);
        if (i == 110)
            want.push_back(kEvents + 2);
    }
    EXPECT_EQ(tag.log, want);
}

// Same-instant events must fire in scheduling order no matter which
// structure holds them: the first kNearSize go to the near array, the
// rest to a wheel bucket that drains into the ready-run, and
// far-future ones to a coarse bucket that cascades down.
TEST(EventQueueWheel, SameTickFifoAcrossNearWheelAndRun)
{
    EventQueue q;
    Tags tag;

    for (int i = 0; i < 100; ++i)
        q.schedule(SimTime::milliseconds(1), tag(i));
    for (int i = 100; i < 102; ++i)
        q.schedule(SimTime::seconds(100), tag(i));
    EXPECT_EQ(q.wheelEntries(), 102 - EventQueue::kNearSize);

    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(tag.log.size(), 102u);
    for (int i = 0; i < 102; ++i)
        EXPECT_EQ(tag.log[std::size_t(i)], i) << "position " << i;
}

// 50,000 events 20 s to about 14 h out, scheduled in increasing order behind
// 100 events in the near array, all park in the wheel: none goes to
// the array, whose inserts would each shift every node. They pop in
// (time, seq) order, each pair of same-instant events in schedule
// order.
TEST(EventQueueWheel, FarFutureFloodStaysInTheWheel)
{
    constexpr int kFlood = 50'000;
    EventQueue q;
    int fired = 0;
    auto count = [&] { ++fired; };
    Probe p = onResume(&count);
    // Latest first, so each one precedes the whole array and joins it.
    for (int i = 100; i > 0; --i)
        q.schedule(SimTime::microseconds(i), p.handle());
    EXPECT_EQ(q.wheelEntries(), 0u);
    // Two events per instant, 20 s to 50,398 s (14 h).
    const auto at = [](int i) {
        return SimTime::seconds(20) +
               SimTime(std::int64_t(i / 2) * 2'015'200'000);
    };
    for (int i = 0; i < kFlood; ++i)
        q.schedule(at(i), p.handle());
    EXPECT_EQ(q.wheelEntries(), std::size_t(kFlood));
    EXPECT_EQ(q.wheelParks(), std::uint64_t(kFlood));

    std::int64_t lastWhen = -1;
    std::uint64_t lastSeq = 0;
    while (!q.empty()) {
        const std::int64_t when = q.nextTime().raw();
        const std::uint64_t seq = q.nextEventSeq();
        ASSERT_TRUE(when > lastWhen || (when == lastWhen && seq > lastSeq))
            << "pop " << fired;
        lastWhen = when;
        lastSeq = seq;
        q.fireNext();
    }
    EXPECT_EQ(fired, kFlood + 100);
    EXPECT_EQ(lastWhen, at(kFlood - 1).raw());
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
// plain stable-sorted list exactly, whatever mix of near array, wheel
// levels and ready-run served each event. The schedule share swings
// between phases, so the pending count crosses kNearSize both ways.
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
    std::size_t peakWheel = 0;
    int crossings = 0;
    bool above = false;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t r = next();
        const std::uint64_t schedulePct = (op / 500) % 2 == 0 ? 65 : 35;
        if (r % 100 < schedulePct || q.empty()) {
            // Delays spanning the near array and all busy wheel levels.
            static constexpr std::int64_t kSpans[] = {
                5'000,          // level 0
                3'000'000,      // level 1
                900'000'000,    // level 2
                30'000'000'000, // level 3
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
        peakWheel = std::max(peakWheel, q.wheelEntries());
        if (above != (q.size() > EventQueue::kNearSize)) {
            above = !above;
            ++crossings;
        }
    }
    EXPECT_GT(peakWheel, 0u);
    EXPECT_GE(crossings, 4);
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
