/** @file Unit tests for the deterministic event queue. */

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

} // namespace
