/**
 * @file
 * Unit tests for the keep-alive strategy seam: histogram idle-window
 * learning and eviction ordering, and strategy configs.
 */

#include <gtest/gtest.h>

#include "core/keepalive.hh"

namespace {

using namespace molecule;
using namespace molecule::sim::literals;
using core::HistogramKeepAlive;
using core::KeepAliveConfig;
using core::WarmEntryView;
using sim::SimTime;

// ---------------------------------------------------------------------
// Histogram idle windows.
// ---------------------------------------------------------------------

TEST(HistogramKeepAlive, DefaultWindowUntilEnoughSamples)
{
    HistogramKeepAlive h;
    EXPECT_DOUBLE_EQ(h.window("fn", 0).toMilliseconds(), 250.0);

    // Three intervals (< minSamples = 4 observations of reuse).
    SimTime t;
    for (int i = 0; i < 4; ++i, t = t + 100_ms)
        h.onRequest("fn", 0, t);
    EXPECT_DOUBLE_EQ(h.window("fn", 0).toMilliseconds(), 250.0);
}

TEST(HistogramKeepAlive, LearnsTheReuseInterval)
{
    HistogramKeepAlive h;
    SimTime t;
    for (int i = 0; i < 8; ++i, t = t + 100_ms)
        h.onRequest("fn", 0, t);
    const double windowMs = h.window("fn", 0).toMilliseconds();
    // Log2 buckets + 1.25x margin: the 100 ms cadence must land the
    // window at or above the interval but well under the default for
    // such a tight pattern's neighborhood (one bucket + margin).
    EXPECT_GE(windowMs, 100.0);
    EXPECT_LE(windowMs, 400.0);
}

TEST(HistogramKeepAlive, WindowsAreLearnedPerFunctionAndPu)
{
    HistogramKeepAlive h;
    SimTime t;
    for (int i = 0; i < 8; ++i, t = t + 10_ms)
        h.onRequest("fast", 0, t);
    SimTime u;
    for (int i = 0; i < 8; ++i, u = u + 1000_ms)
        h.onRequest("slow", 1, u);
    EXPECT_LT(h.window("fast", 0), h.window("slow", 1));
    EXPECT_DOUBLE_EQ(h.window("fast", 1).toMilliseconds(), 250.0);
}

TEST(HistogramKeepAlive, OverdueEntriesEvictBeforeProtectedOnes)
{
    HistogramKeepAlive h;
    SimTime t;
    for (int i = 0; i < 8; ++i, t = t + 100_ms)
        h.onRequest("fn", 0, t);

    WarmEntryView fresh;
    fresh.fn = "fn";
    fresh.pu = 0;
    fresh.lastUsed = t;
    WarmEntryView overdue = fresh;
    overdue.lastUsed = t - 5000_ms; // far past the ~125-250 ms window

    const SimTime now = t + 50_ms;
    EXPECT_LT(h.score(overdue, now), h.score(fresh, now));
    // Protected entries keep LRU order among themselves.
    WarmEntryView older = fresh;
    older.lastUsed = t - 20_ms;
    EXPECT_LT(h.score(older, now), h.score(fresh, now));
    // The most overdue entry goes first.
    WarmEntryView ancient = overdue;
    ancient.lastUsed = t - 9000_ms;
    EXPECT_LT(h.score(ancient, now), h.score(overdue, now));
}

TEST(KeepAliveConfig, MakeBuildsTheSelectedStrategy)
{
    EXPECT_STREQ(KeepAliveConfig::lru().make()->name(), "lru");
    EXPECT_STREQ(KeepAliveConfig::greedyDual().make()->name(),
                 "greedy-dual");
    EXPECT_STREQ(KeepAliveConfig::histogram().make()->name(),
                 "histogram");
    EXPECT_EQ(KeepAliveConfig::histogram().kind,
              KeepAliveConfig::Kind::Histogram);
    EXPECT_STREQ(core::toString(KeepAliveConfig::Kind::Histogram),
                 "histogram");
}

} // namespace
