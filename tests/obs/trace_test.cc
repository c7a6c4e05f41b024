/**
 * @file
 * Span/Tracer lifecycle tests (obs/trace.hh).
 *
 * Pins the causal-tracing contract: root spans open traces with
 * deterministic ids, children parent via explicit SpanContext,
 * finish() is idempotent, inert contexts make every operation a
 * no-op, timestamps are sim time, and the ring bound drops oldest
 * records while counting the loss.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../core/count_new.hh"
#include "obs/trace.hh"

namespace {

using namespace molecule;

// The inert surface must be harmless: this is the API shape every
// call site relies on when no tracer is attached.
TEST(SpanInert, DefaultContextIsNoOp)
{
    obs::SpanContext ctx;
    EXPECT_FALSE(ctx.active());
    EXPECT_EQ(ctx.trace, 0u);

    obs::Span span(ctx, "orphan", obs::Layer::Core, 3);
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.traceId(), 0u);
    span.setPu(5);
    span.setArg(123);
    span.setDetail("ignored");
    span.finish();
    span.finish();

    // Children of an inert span are inert too: inertness propagates
    // down whole call trees from a single null root.
    obs::Span child(span.ctx(), "child", obs::Layer::Os);
    EXPECT_FALSE(child.active());
}

TEST(SpanInert, NullTracerRootIsNoOp)
{
    obs::Span span = obs::Span::root(nullptr, "invoke", obs::Layer::Core);
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.ctx().active());
}

// An inert handle reads zero and writes nowhere: in particular not
// into a record the tracer lends to the next span.
TEST(SpanInert, InertHandleReadsZeroAndWritesNothing)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    obs::Span inert(obs::SpanContext{}, "orphan", obs::Layer::Core, 3);
    EXPECT_EQ(inert.ctx().tracer, nullptr);
    EXPECT_EQ(inert.ctx().trace, 0u);
    EXPECT_EQ(inert.ctx().span, 0u);
    EXPECT_EQ(inert.traceId(), 0u);
    EXPECT_EQ(inert.spanId(), 0u);
    inert.setArg(123);
    inert.setPu(5);
    inert.setDetail("ignored");
    inert.finish();
    EXPECT_TRUE(tracer.records().empty());

    // A finished span is inert too: writes after finish() reach
    // neither its pushed record nor the next span's.
    obs::Span first = obs::Span::root(&tracer, "first", obs::Layer::Core);
    first.finish();
    first.setArg(9);
    first.setPu(9);
    first.setDetail("late");
    EXPECT_EQ(first.traceId(), 0u);
    EXPECT_EQ(first.spanId(), 0u);
    {
        obs::Span second =
            obs::Span::root(&tracer, "second", obs::Layer::Core, 1);
    }
    ASSERT_EQ(tracer.records().size(), 2u);
    for (const obs::SpanRecord &rec : tracer.records()) {
        EXPECT_EQ(rec.arg, 0);
        EXPECT_STREQ(rec.detail, "");
    }
    EXPECT_EQ(tracer.records()[0].pu, -1);
    EXPECT_EQ(tracer.records()[1].pu, 1);
}

TEST(Span, RootOpensTraceAndRecords)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    {
        obs::Span span =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core, 2);
        EXPECT_TRUE(span.active());
        EXPECT_NE(span.traceId(), 0u);
        span.setArg(7);
        span.setDetail("helloworld");
    }
    ASSERT_EQ(tracer.records().size(), 1u);
    const obs::SpanRecord &rec = tracer.records().front();
    EXPECT_STREQ(rec.name, "invoke");
    EXPECT_EQ(rec.layer, obs::Layer::Core);
    EXPECT_EQ(rec.parentId, 0u);
    EXPECT_EQ(rec.pu, 2);
    EXPECT_EQ(rec.arg, 7);
    EXPECT_STREQ(rec.detail, "helloworld");
}

TEST(Span, ChildParentsOnContext)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    obs::Span root = obs::Span::root(&tracer, "invoke", obs::Layer::Core);
    {
        obs::Span child(root.ctx(), "startup", obs::Layer::Sandbox, 1);
        EXPECT_TRUE(child.active());
        EXPECT_EQ(child.traceId(), root.traceId());
        EXPECT_NE(child.spanId(), root.spanId());
    }
    root.finish();

    // Children finish (and are pushed) before their parents.
    ASSERT_EQ(tracer.records().size(), 2u);
    const obs::SpanRecord &child = tracer.records()[0];
    const obs::SpanRecord &parent = tracer.records()[1];
    EXPECT_STREQ(child.name, "startup");
    EXPECT_EQ(child.parentId, parent.spanId);
    EXPECT_EQ(child.traceId, parent.traceId);
}

TEST(Span, FinishIsIdempotent)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    obs::Span span = obs::Span::root(&tracer, "invoke", obs::Layer::Core);
    span.finish();
    span.finish();
    EXPECT_FALSE(span.active());
    // Destructor runs after the explicit finish: still one record.
    EXPECT_EQ(tracer.records().size(), 1u);
    // A finished span hands out inert contexts, so late children of a
    // closed phase silently vanish instead of mis-parenting.
    EXPECT_FALSE(span.ctx().active());
}

TEST(Span, DetailTruncatesToBuffer)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    const std::string longName(64, 'x');
    {
        obs::Span span =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core);
        span.setDetail(longName.c_str());
    }
    const obs::SpanRecord &rec = tracer.records().front();
    EXPECT_EQ(std::strlen(rec.detail),
              sizeof(rec.detail) - 1); // NUL-terminated truncation
    EXPECT_EQ(std::string(rec.detail), longName.substr(0, 23));
}

sim::Task<>
timedPhases(sim::Simulation &sim, obs::Tracer &tracer)
{
    obs::Span root = obs::Span::root(&tracer, "invoke", obs::Layer::Core);
    {
        obs::Span a(root.ctx(), "startup", obs::Layer::Sandbox);
        co_await sim.delay(sim::SimTime::microseconds(30));
    }
    {
        obs::Span b(root.ctx(), "comm", obs::Layer::Core);
        co_await sim.delay(sim::SimTime::microseconds(12));
    }
}

TEST(Span, TimestampsAreSimTime)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    simu.spawn(timedPhases(simu, tracer));
    simu.run();

    ASSERT_EQ(tracer.records().size(), 3u);
    const obs::SpanRecord &a = tracer.records()[0];
    const obs::SpanRecord &b = tracer.records()[1];
    const obs::SpanRecord &root = tracer.records()[2];
    EXPECT_EQ(a.end - a.start, 30'000);
    EXPECT_EQ(b.end - b.start, 12'000);
    // Sequential, contiguous phases sum exactly to the root: the
    // invariant tools/trace_report's fig10 --check gates on.
    EXPECT_EQ(b.start, a.end);
    EXPECT_EQ(root.end - root.start,
              (a.end - a.start) + (b.end - b.start));
}

TEST(Tracer, RingBoundDropsOldest)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42, /*ringCapacity=*/4);
    static const char *const names[] = {"p0", "p1", "p2", "p3",
                                        "p4", "p5", "p6"};
    for (const char *n : names) {
        obs::Span span = obs::Span::root(&tracer, n, obs::Layer::Core);
    }
    // The ring compacts by halves (amortized O(1) push): hitting the
    // capacity of 4 drops down to the 2 newest, so after 7 pushes two
    // compactions have discarded p0-p3 and the 3 newest remain.
    ASSERT_EQ(tracer.records().size(), 3u);
    EXPECT_EQ(tracer.dropped(), 4u);
    EXPECT_STREQ(tracer.records()[0].name, "p4");
    EXPECT_STREQ(tracer.records()[2].name, "p6");
}

TEST(Tracer, IdsAreDeterministicPerSeed)
{
    sim::Simulation simA, simB, simC;
    obs::Tracer a(simA, 42), b(simB, 42), c(simC, 7);
    std::uint64_t ta[3], tb[3], tc[3];
    for (int i = 0; i < 3; ++i) {
        ta[i] = a.newTraceId();
        tb[i] = b.newTraceId();
        tc[i] = c.newTraceId();
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(ta[i], tb[i]) << "same seed, same id sequence";
        EXPECT_NE(ta[i], tc[i]) << "different seed, different ids";
        EXPECT_NE(ta[i], 0u) << "0 is reserved for 'no trace'";
    }
}

TEST(Tracer, FeedsMetricsRegistryPerSpan)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    {
        obs::Span root =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core);
        obs::Span child(root.ctx(), "startup", obs::Layer::Sandbox);
    }
    const auto &hists = tracer.metrics().histograms();
    ASSERT_TRUE(hists.count("invoke"));
    ASSERT_TRUE(hists.count("startup"));
    EXPECT_EQ(hists.at("invoke").count(), 1u);
    EXPECT_EQ(hists.at("startup").count(), 1u);
}

TEST(Tracer, ClearResetsRecordsAndMetrics)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    {
        obs::Span span =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core);
    }
    ASSERT_FALSE(tracer.records().empty());
    tracer.clear();
    EXPECT_TRUE(tracer.records().empty());
    EXPECT_TRUE(tracer.metrics().histograms().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

// clear() drops finished spans only; a span open across it keeps its
// record and pushes it once when it finishes.
TEST(Tracer, ClearWithASpanOpenKeepsItsRecord)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    obs::Span open = obs::Span::root(&tracer, "open", obs::Layer::Core, 2);
    open.setArg(5);
    const std::uint64_t id = open.spanId();
    {
        obs::Span child(open.ctx(), "child", obs::Layer::Os);
    }
    tracer.clear();
    EXPECT_TRUE(tracer.records().empty());
    {
        // Spans opened after the clear get records of their own.
        obs::Span other = obs::Span::root(&tracer, "other", obs::Layer::Hw);
        other.setArg(9);
        EXPECT_NE(other.spanId(), id);
    }
    EXPECT_TRUE(open.active());
    EXPECT_EQ(open.spanId(), id);
    open.finish();
    open.finish();
    ASSERT_EQ(tracer.records().size(), 2u);
    const obs::SpanRecord &rec = tracer.records()[1];
    EXPECT_STREQ(rec.name, "open");
    EXPECT_EQ(rec.spanId, id);
    EXPECT_EQ(rec.arg, 5);
    EXPECT_EQ(rec.pu, 2);
    EXPECT_EQ(tracer.records()[0].arg, 9);
    EXPECT_EQ(tracer.metrics().histograms().at("open").count(), 1u);
}

// Open records are lent and taken back: once the pool, the ring and
// the per-name histograms have their sizes, nested span cycles never
// reach the heap.
TEST(Tracer, NestedSpanCyclesAllocateNothingAfterWarmUp)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42, /*ringCapacity=*/512);
    const auto cycle = [&tracer] {
        obs::Span root =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core, 0);
        root.setDetail("gzip-compression");
        obs::Span startup(root.ctx(), "startup", obs::Layer::Core, 1);
        {
            obs::Span exec(startup.ctx(), "sandbox.exec",
                           obs::Layer::Sandbox, 1);
            exec.setArg(7);
        }
        startup.finish();
        obs::Span comm(root.ctx(), "comm", obs::Layer::Core, 1);
        obs::Span hop(comm.ctx(), "nipc.transfer", obs::Layer::Xpu, 0);
    };
    for (int i = 0; i < 1000; ++i)
        cycle();
    const std::uint64_t before = g_allocCount;
    for (int i = 0; i < 5000; ++i)
        cycle();
    const std::uint64_t allocs = g_allocCount - before;
    EXPECT_EQ(tracer.metrics().histograms().at("invoke").count(), 6000u);
    EXPECT_GT(tracer.dropped(), 0u); // the ring cycled
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: the spans ran, nothing "
                    "was counted";
#endif
    EXPECT_EQ(allocs, 0u);
}

TEST(Registry, HistogramPercentilesAreOrderedAndBounded)
{
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.add(double(i));
    EXPECT_EQ(h.count(), 1000u);
    const double p50 = h.percentile(50);
    const double p95 = h.percentile(95);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Log buckets are ~9% wide: percentiles are approximate but must
    // stay in the right neighborhood and inside the observed range.
    EXPECT_NEAR(p50, 500.0, 60.0);
    EXPECT_NEAR(p99, 990.0, 100.0);
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max());
}

// The exact moments the benches print: mean is sum / count in add
// order, min and max are the observed extremes.
TEST(Histogram, BasicMoments)
{
    obs::Histogram h;
    for (double v : {3.0, 1.0, 4.0, 2.0})
        h.add(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, AddTimeStoresMicroseconds)
{
    obs::Histogram h;
    h.addTime(sim::SimTime::nanoseconds(1500));
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
}

TEST(Histogram, ClearResets)
{
    obs::Histogram h;
    h.add(1.0);
    h.add(1000.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    h.add(7.0);
    EXPECT_DOUBLE_EQ(h.min(), 7.0);
    EXPECT_DOUBLE_EQ(h.max(), 7.0);
}

TEST(SpanBuffer, PushIndexIterateAcrossChunks)
{
    obs::SpanBuffer buf;
    EXPECT_TRUE(buf.empty());

    // Enough records to span several 128-record chunks.
    for (std::uint64_t i = 0; i < 300; ++i) {
        obs::SpanRecord rec;
        rec.spanId = i + 1;
        buf.push_back(rec);
    }
    ASSERT_EQ(buf.size(), 300u);
    EXPECT_EQ(buf.front().spanId, 1u);
    EXPECT_EQ(buf.back().spanId, 300u);
    EXPECT_EQ(buf[200].spanId, 201u);

    std::uint64_t expect = 1;
    for (const obs::SpanRecord &rec : buf)
        EXPECT_EQ(rec.spanId, expect++);

    const std::vector<obs::SpanRecord> copy = buf.snapshot();
    ASSERT_EQ(copy.size(), 300u);
    EXPECT_EQ(copy[299].spanId, 300u);
}

TEST(SpanBuffer, DropOldestRecyclesWithoutAllocating)
{
    obs::SpanBuffer buf;

    // Prime: fill past a few chunks, then run one ring cycle, so the
    // free list and the chunk index have their steady-state sizes.
    obs::SpanRecord rec;
    const auto cycle = [&buf, &rec] {
        buf.dropOldest(buf.size() - obs::SpanBuffer::kChunkSize);
        for (std::uint64_t i = 0; i < 3 * obs::SpanBuffer::kChunkSize;
             ++i)
            buf.push_back(rec);
    };
    for (std::uint64_t i = 0; i < 4 * obs::SpanBuffer::kChunkSize; ++i)
        buf.push_back(rec);
    cycle();

    // Ring churn: many fill/drop cycles must reuse retired chunks and
    // never touch the heap.
    const std::uint64_t before = g_allocCount;
    for (int i = 0; i < 50; ++i)
        cycle();
    const std::uint64_t allocs = g_allocCount - before;
    EXPECT_EQ(buf.size(), 4 * obs::SpanBuffer::kChunkSize);

    // Drop everything: empty but reusable.
    buf.dropOldest(buf.size() + 100);
    EXPECT_TRUE(buf.empty());
    buf.push_back(rec);
    EXPECT_EQ(buf.size(), 1u);
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: the ring ran, nothing "
                    "was counted";
#endif
    EXPECT_EQ(allocs, 0u);
}

// The ring bound keeps the newest spans and counts the loss, with
// the drop-oldest semantics of the old vector implementation.
TEST(SpanBuffer, TracerRingBoundDropsOldest)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42, 8);
    for (int i = 0; i < 20; ++i) {
        obs::Span span =
            obs::Span::root(&tracer, "s", obs::Layer::Core);
    }
    EXPECT_LE(tracer.records().size(), 8u);
    EXPECT_EQ(tracer.dropped() + tracer.records().size(), 20u);
    // The survivors are the newest spans, in order.
    const auto &records = tracer.records();
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_LT(records[i - 1].spanId, records[i].spanId);
    EXPECT_EQ(records.back().spanId, 20u);
}

// In-flight exports must survive the buffer's reuse and teardown:
// snapshots are copies, so clearing the tracer, refilling the recycled
// chunk and destroying the tracer afterwards cannot corrupt them.
TEST(SpanBuffer, ExportsSurviveClearAndChunkReuse)
{
    sim::Simulation simu;
    std::vector<obs::SpanRecord> snapshot;
    {
        obs::Tracer tracer(simu, 42);
        {
            obs::Span root =
                obs::Span::root(&tracer, "invoke", obs::Layer::Core, 1);
            obs::Span child(root.ctx(), "startup", obs::Layer::Sandbox,
                            1);
        }
        ASSERT_EQ(tracer.records().size(), 2u);
        snapshot = tracer.records().snapshot();

        tracer.clear();
        // Overwrite the slots the old records occupied.
        for (int i = 0; i < 4; ++i) {
            obs::Span clobber =
                obs::Span::root(&tracer, "clobber", obs::Layer::Hw, 7);
        }
        ASSERT_EQ(tracer.records().size(), 4u);
        EXPECT_EQ(std::string(tracer.records()[0].name), "clobber");
    }

    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(std::string(snapshot[0].name), "startup");
    EXPECT_EQ(std::string(snapshot[1].name), "invoke");
    EXPECT_EQ(snapshot[0].pu, 1);
}

} // namespace
