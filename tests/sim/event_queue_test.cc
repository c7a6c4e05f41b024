/**
 * @file
 * Unit tests for the deterministic event queue, and for its near
 * array: the short sorted list that holds every event while fewer
 * than EventQueue::kNearSize are pending.
 */

#include <gtest/gtest.h>

#include <vector>

#include "probe.hh"
#include "sim/event_queue.hh"

namespace {

using molecule::sim::EventQueue;
using molecule::sim::SimTime;
using molecule::test::onResume;
using molecule::test::Probe;
using molecule::test::Tags;
using namespace molecule::sim::literals;

constexpr int kNear = int(EventQueue::kNearSize);

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    Tags tag;
    q.schedule(3_us, tag(3));
    q.schedule(1_us, tag(1));
    q.schedule(2_us, tag(2));
    while (!q.empty())
        q.fireNext();
    EXPECT_EQ(tag.log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.firedCount(), 3u);
}

TEST(EventQueue, SameInstantFiresInScheduleOrder)
{
    EventQueue q;
    Tags tag;
    for (int i = 0; i < 16; ++i)
        q.schedule(5_us, tag(i));
    while (!q.empty())
        q.fireNext();
    ASSERT_EQ(tag.log.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(tag.log[std::size_t(i)], i);
}

TEST(EventQueue, PopNextReturnsTimestampAndCallback)
{
    EventQueue q;
    Tags tag;
    q.schedule(7_us, tag(1));
    EXPECT_EQ(q.nextTime(), 7_us);
    auto [when, h] = q.popNext();
    EXPECT_EQ(when, 7_us);
    EXPECT_TRUE(q.empty());
    h.resume();
    EXPECT_EQ(tag.log, (std::vector<int>{1}));
    // Popped, not fired: the caller resumed it.
    EXPECT_EQ(q.firedCount(), 0u);
}

TEST(EventQueue, CallbackMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<SimTime> fire;
    SimTime clock;
    auto second = [&] { fire.push_back(clock); };
    Probe late = onResume(&second);
    auto first = [&] {
        q.schedule(5_us, late.handle());
        fire.push_back(clock);
    };
    Probe early = onResume(&first);
    q.schedule(1_us, early.handle());
    while (!q.empty()) {
        clock = q.nextTime();
        q.fireNext();
    }
    EXPECT_EQ(fire, (std::vector<SimTime>{1_us, 5_us}));
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue q;
    Tags tag;
    q.schedule(1_us, tag(1));
    q.schedule(2_us, tag(2));
    EXPECT_EQ(q.size(), 2u);
    q.fireNext();
    EXPECT_EQ(q.size(), 1u);
    q.fireNext();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OneHandleQueuedManyTimesFiresEachTime)
{
    EventQueue q;
    int hits = 0;
    auto count = [&] { ++hits; };
    Probe p = onResume(&count);
    for (int i = 0; i < 40; ++i)
        q.schedule(SimTime::microseconds(i % 5), p.handle());
    while (!q.empty())
        q.fireNext();
    EXPECT_EQ(hits, 40);
}

// Same-instant events queued out of time order around other events
// fire in scheduling order inside the array.
TEST(EventQueueNear, SameInstantFifoInsideTheArray)
{
    EventQueue q;
    Tags tag;
    q.schedule(9_us, tag(100));
    for (int i = 0; i < 10; ++i) {
        q.schedule(5_us, tag(i));
        q.schedule(SimTime::microseconds(8 - i % 3), tag(10 + i));
    }
    q.schedule(1_us, tag(101));
    EXPECT_EQ(q.wheelEntries(), 0u);
    EXPECT_EQ(q.wheelParks(), 0u);
    while (!q.empty())
        q.fireNext();

    std::vector<int> want{101};
    for (int i = 0; i < 10; ++i)
        want.push_back(i);
    for (int late = 6; late <= 8; ++late)
        for (int i = 0; i < 10; ++i)
            if (8 - i % 3 == late)
                want.push_back(10 + i);
    want.push_back(100);
    EXPECT_EQ(tag.log, want);
}

// A full array sends a later event to the wheel, whose level-0 window
// drains into the ready-run. An event scheduled afterwards at the
// run's instant joins the array, and the run's older event fires
// first.
TEST(EventQueueNear, TieBetweenArrayAndRunKeepsScheduleOrder)
{
    EventQueue q;
    Tags tag;
    for (int i = 0; i < kNear; ++i)
        q.schedule(1_us, tag(i));
    q.schedule(5_us, tag(kNear));
    EXPECT_EQ(q.wheelParks(), 1u);

    // Draining window 0 moves the 5 us event into the run.
    q.fireNext();
    EXPECT_EQ(q.wheelEntries(), 0u);
    q.schedule(5_us, tag(kNear + 1)); // the array has room
    q.schedule(5_us, tag(kNear + 2)); // full: the wheel refuses it
    EXPECT_EQ(q.wheelParks(), 1u);
    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(tag.log.size(), std::size_t(kNear + 3));
    for (int i = 0; i < kNear + 3; ++i)
        EXPECT_EQ(tag.log[std::size_t(i)], i) << "position " << i;
}

// An event at exactly the array's kNearSize-th earliest time does not
// precede that node (its sequence is later), so it parks in the
// wheel; one nanosecond earlier joins the array.
TEST(EventQueueNear, InsertAtTheBoundNodeParksInTheWheel)
{
    EventQueue q;
    Tags tag;
    for (int i = 0; i < kNear; ++i)
        q.schedule(SimTime::microseconds(10 + i), tag(i));
    // With kNearSize nodes, the bound node is the latest.
    const SimTime bound = SimTime::microseconds(10 + kNear - 1);
    q.schedule(bound, tag(kNear));
    EXPECT_EQ(q.wheelParks(), 1u);
    EXPECT_EQ(q.wheelEntries(), 1u);
    q.schedule(bound - SimTime(1), tag(kNear + 1));
    EXPECT_EQ(q.wheelParks(), 1u);
    EXPECT_EQ(q.size(), std::size_t(kNear + 2));
    while (!q.empty())
        q.fireNext();

    std::vector<int> want;
    for (int i = 0; i < kNear - 1; ++i)
        want.push_back(i);
    for (int last : {kNear + 1, kNear - 1, kNear})
        want.push_back(last);
    EXPECT_EQ(tag.log, want);
}

// The wheel refuses an event behind its drained frontier; with the
// array full, the event is binary-inserted at its sorted place.
TEST(EventQueueNear, EventBehindTheFrontierJoinsTheArray)
{
    EventQueue q;
    Tags tag;
    for (int i = 0; i < kNear; ++i)
        q.schedule(1_us, tag(i));
    q.schedule(5_us, tag(kNear + 3));
    q.fireNext(); // drains window 0 (65.5 us): the frontier moves past
    q.schedule(1_us, tag(kNear));     // array back to kNearSize nodes
    q.schedule(2_us, tag(kNear + 2)); // refused by the wheel
    q.schedule(1_us, tag(kNear + 1)); // refused: ties the bound node
    EXPECT_EQ(q.wheelParks(), 1u);
    EXPECT_EQ(q.wheelEntries(), 0u);
    while (!q.empty())
        q.fireNext();

    ASSERT_EQ(tag.log.size(), std::size_t(kNear + 4));
    for (int i = 0; i < kNear + 4; ++i)
        EXPECT_EQ(tag.log[std::size_t(i)], i) << "position " << i;
}

} // namespace
