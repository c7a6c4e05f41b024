/**
 * @file
 * TimeSeries collector tests (obs/timeseries.hh) and the
 * HistogramSnapshot delta math they are built on.
 *
 * Pins the window model: the grid aligns to sim time zero, a sample
 * at exactly a boundary lands in the next window, windows close
 * lazily on feed (never via scheduled events), flush() closes the
 * partial tail, and window deltas sum back to run totals exactly —
 * for direct feeds and for watched registries alike. Also pins
 * snapshot minus/merge/countAbove and digest reproducibility.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace {

using namespace molecule;
using sim::SimTime;

// ---------------------------------------------------------------
// HistogramSnapshot math.

TEST(HistogramSnapshot, MinusIsExactlyTheBetweenDistribution)
{
    obs::Histogram h;
    h.add(10.0);
    h.add(100.0);
    const obs::HistogramSnapshot before = h.snapshotBuckets();
    h.add(100.0);
    h.add(1000.0);
    const obs::HistogramSnapshot after = h.snapshotBuckets();

    const obs::HistogramSnapshot delta = after.minus(before);
    EXPECT_EQ(delta.count, 2u);
    EXPECT_DOUBLE_EQ(delta.sum, 1100.0);
    // The 10.0 bucket must not appear: its count did not change.
    for (const auto &[idx, n] : delta.buckets) {
        EXPECT_GT(n, 0u);
        EXPECT_NE(idx, obs::Histogram::bucketOf(10.0));
    }
}

TEST(HistogramSnapshot, MinusOfSelfIsEmpty)
{
    obs::Histogram h;
    h.add(42.0);
    h.add(7.0);
    const obs::HistogramSnapshot snap = h.snapshotBuckets();
    const obs::HistogramSnapshot delta = snap.minus(snap);
    EXPECT_EQ(delta.count, 0u);
    EXPECT_DOUBLE_EQ(delta.sum, 0.0);
    EXPECT_TRUE(delta.buckets.empty());
}

TEST(HistogramSnapshot, PercentileTracksHistogram)
{
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(double(i));
    const obs::HistogramSnapshot snap = h.snapshotBuckets();
    // Same bucket geometry: within one ~9% bucket of the histogram's
    // own (range-clamped) answer.
    EXPECT_NEAR(snap.percentile(50), h.percentile(50),
                h.percentile(50) * 0.10);
    EXPECT_NEAR(snap.percentile(99), h.percentile(99),
                h.percentile(99) * 0.10);
    EXPECT_DOUBLE_EQ(snap.percentile(0), snap.percentile(0.0001));
}

TEST(HistogramSnapshot, CountAboveIsBucketExact)
{
    obs::Histogram h;
    h.add(10.0);
    h.add(1000.0);
    h.add(2000.0);
    const obs::HistogramSnapshot snap = h.snapshotBuckets();
    // Buckets strictly above the one holding 100.0.
    EXPECT_EQ(snap.countAbove(100.0), 2u);
    EXPECT_EQ(snap.countAbove(5000.0), 0u);
    EXPECT_EQ(snap.countAbove(0.5), 3u);
}

TEST(HistogramSnapshot, MergeFoldsCountsSumsAndBuckets)
{
    obs::Histogram a;
    a.add(10.0);
    a.add(100.0);
    obs::Histogram b;
    b.add(100.0);
    b.add(9000.0);

    obs::HistogramSnapshot merged = a.snapshotBuckets();
    merged.merge(b.snapshotBuckets());
    EXPECT_EQ(merged.count, 4u);
    EXPECT_DOUBLE_EQ(merged.sum, 9210.0);
    // Shared bucket (100.0) folded, not duplicated.
    std::uint64_t at100 = 0;
    for (const auto &[idx, n] : merged.buckets)
        if (idx == obs::Histogram::bucketOf(100.0))
            at100 = n;
    EXPECT_EQ(at100, 2u);
    for (std::size_t i = 1; i < merged.buckets.size(); ++i)
        EXPECT_LT(merged.buckets[i - 1].first, merged.buckets[i].first);
}

// ---------------------------------------------------------------
// The windowed collector.

TEST(TimeSeries, BoundarySampleBelongsToNextWindow)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto id = ts.counterId("requests");

    sim.schedule(SimTime::milliseconds(500), [&] { ts.count(id); });
    // Exactly at the 1 s boundary: must land in window 1, not 0.
    sim.schedule(SimTime::seconds(1), [&] { ts.count(id); });
    sim.schedule(SimTime::milliseconds(1500), [&] { ts.count(id); });
    sim.run();
    ts.flush();

    ASSERT_EQ(ts.windowsClosed(), 2u);
    const obs::WindowRecord &w0 = ts.windows()[0];
    const obs::WindowRecord &w1 = ts.windows()[1];
    EXPECT_EQ(w0.index, 0u);
    ASSERT_NE(w0.find(id), nullptr);
    EXPECT_EQ(w0.find(id)->count, 1);
    EXPECT_EQ(w1.index, 1u);
    ASSERT_NE(w1.find(id), nullptr);
    EXPECT_EQ(w1.find(id)->count, 2);
}

TEST(TimeSeries, QuietWindowsStillClose)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto id = ts.counterId("requests");

    sim.schedule(SimTime::milliseconds(100), [&] { ts.count(id); });
    // Nothing for 3 windows, then one more sample: the catch-up roll
    // must close the empty windows 1..3 too (the grid has no holes).
    sim.schedule(SimTime::milliseconds(4500), [&] { ts.count(id); });
    sim.run();
    ts.flush();

    ASSERT_EQ(ts.windowsClosed(), 5u);
    EXPECT_EQ(ts.windows()[1].find(id), nullptr);
    EXPECT_TRUE(ts.windows()[2].points.empty());
    EXPECT_EQ(ts.windows()[4].find(id)->count, 1);
}

TEST(TimeSeries, WindowDeltasSumToRunTotals)
{
    sim::Simulation sim(7);
    obs::TimeSeries ts(sim);
    const auto reqs = ts.counterId("requests", 0);
    const auto lat = ts.histogramId("latency_us", 0);

    for (int i = 1; i <= 50; ++i) {
        sim.schedule(SimTime::milliseconds(i * 170), [&ts, reqs, lat, i] {
            ts.count(reqs, 2);
            ts.observe(lat, double(10 * i));
        });
    }
    sim.run();
    ts.flush();

    std::int64_t sumReqs = 0;
    std::int64_t sumLat = 0;
    double sumLatSum = 0.0;
    for (const obs::WindowRecord &w : ts.windows()) {
        if (const obs::WindowPoint *p = w.find(reqs))
            sumReqs += p->count;
        if (const obs::WindowPoint *p = w.find(lat)) {
            sumLat += p->count;
            sumLatSum += p->sum;
        }
    }
    EXPECT_EQ(sumReqs, 100);
    EXPECT_EQ(sumReqs, ts.counterValue(reqs));
    EXPECT_EQ(sumLat, 50);
    const obs::HistogramSnapshot total = ts.histogramTotal(lat);
    EXPECT_EQ(std::uint64_t(sumLat), total.count);
    EXPECT_DOUBLE_EQ(sumLatSum, total.sum);
}

TEST(TimeSeries, GaugeLastAndMaxPerWindow)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto depth = ts.gaugeId("queue_depth");

    sim.schedule(SimTime::milliseconds(100), [&] { ts.set(depth, 5); });
    sim.schedule(SimTime::milliseconds(200), [&] { ts.set(depth, 9); });
    sim.schedule(SimTime::milliseconds(300), [&] { ts.set(depth, 2); });
    // Window 1: untouched — the gauge must carry the level (2), not
    // the excursion (9).
    sim.schedule(SimTime::milliseconds(1500), [&] { ts.count(
        ts.counterId("tick")); });
    sim.run();
    ts.flush();

    ASSERT_EQ(ts.windowsClosed(), 2u);
    const obs::WindowPoint *w0 = ts.windows()[0].find(depth);
    ASSERT_NE(w0, nullptr);
    EXPECT_DOUBLE_EQ(w0->value, 2.0);
    EXPECT_DOUBLE_EQ(w0->maxValue, 9.0);
    const obs::WindowPoint *w1 = ts.windows()[1].find(depth);
    ASSERT_NE(w1, nullptr);
    EXPECT_DOUBLE_EQ(w1->value, 2.0);
    EXPECT_DOUBLE_EQ(w1->maxValue, 2.0);
}

TEST(TimeSeries, HistogramWindowPercentilesUseBucketDeltas)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto lat = ts.histogramId("latency_us");
    ts.setThreshold(lat, 500.0);

    // Window 0: all fast. Window 1: all slow. Cumulative percentiles
    // would smear; per-window bucket deltas must not.
    sim.schedule(SimTime::milliseconds(100), [&] {
        for (int i = 0; i < 100; ++i)
            ts.observe(lat, 100.0);
    });
    sim.schedule(SimTime::milliseconds(1100), [&] {
        for (int i = 0; i < 100; ++i)
            ts.observe(lat, 10'000.0);
    });
    sim.run();
    ts.flush();

    ASSERT_EQ(ts.windowsClosed(), 2u);
    const obs::WindowPoint *w0 = ts.windows()[0].find(lat);
    const obs::WindowPoint *w1 = ts.windows()[1].find(lat);
    ASSERT_NE(w0, nullptr);
    ASSERT_NE(w1, nullptr);
    EXPECT_NEAR(w0->p99, 100.0, 100.0 * 0.10);
    EXPECT_NEAR(w1->p99, 10'000.0, 10'000.0 * 0.10);
    EXPECT_EQ(w0->above, 0);
    EXPECT_EQ(w1->above, 100);
}

TEST(TimeSeries, WatchedRegistryEmitsWindowDeltas)
{
    sim::Simulation sim(1);
    obs::Registry reg;
    obs::TimeSeries ts(sim);
    ts.watch(reg);

    sim.schedule(SimTime::milliseconds(200), [&] {
        reg.counter("ops").inc(3);
        reg.histogram("us").add(50.0);
        ts.count(ts.counterId("tick")); // drives the roll
    });
    sim.schedule(SimTime::milliseconds(1200), [&] {
        // Watched metrics are sampled lazily at window close, so roll
        // past the boundary *before* mutating: the increment below
        // belongs to window 1.
        ts.count(ts.counterId("tick"));
        reg.counter("ops").inc(4);
    });
    sim.run();
    ts.flush();

    ASSERT_EQ(ts.windowsClosed(), 2u);
    const auto ops = ts.counterId("ops");
    const auto us = ts.histogramId("us");
    const obs::WindowPoint *ops0 = ts.windows()[0].find(ops);
    const obs::WindowPoint *us0 = ts.windows()[0].find(us);
    const obs::WindowPoint *ops1 = ts.windows()[1].find(ops);
    ASSERT_NE(ops0, nullptr);
    ASSERT_NE(us0, nullptr);
    ASSERT_NE(ops1, nullptr);
    EXPECT_EQ(ops0->count, 3);
    EXPECT_EQ(us0->count, 1);
    EXPECT_EQ(ops1->count, 4);
    EXPECT_EQ(ts.windows()[1].find(us), nullptr);
    EXPECT_EQ(ts.counterValue(ops), 7);
}

TEST(TimeSeries, SeriesCreationIsIdempotent)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto a = ts.counterId("m", 1, 2);
    EXPECT_EQ(ts.counterId("m", 1, 2), a);
    EXPECT_NE(ts.counterId("m", 1, 3), a);
    EXPECT_NE(ts.counterId("m", -1, -1), a);
    EXPECT_EQ(ts.seriesCount(), 3u);
    EXPECT_EQ(ts.series(a).tenant, 1);
    EXPECT_EQ(ts.series(a).node, 2);
}

TEST(TimeSeries, DigestReproducesAcrossRuns)
{
    const auto run = [] {
        sim::Simulation sim(42);
        obs::TimeSeries ts(sim);
        const auto id = ts.histogramId("lat", 0);
        for (int i = 1; i <= 30; ++i)
            sim.schedule(SimTime::milliseconds(i * 77),
                         [&ts, id, i] { ts.observe(id, double(i)); });
        sim.run();
        ts.flush();
        return ts.digest();
    };
    const std::uint64_t a = run();
    EXPECT_NE(a, 0u);
    EXPECT_EQ(a, run());
}

TEST(TimeSeries, FlushClosesPartialTail)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim);
    const auto id = ts.counterId("x");
    sim.schedule(SimTime::milliseconds(300), [&] { ts.count(id, 5); });
    sim.run();
    EXPECT_EQ(ts.windowsClosed(), 0u);
    ts.flush();
    ASSERT_EQ(ts.windowsClosed(), 1u);
    EXPECT_EQ(ts.windows()[0].find(id)->count, 5);
}

} // namespace
