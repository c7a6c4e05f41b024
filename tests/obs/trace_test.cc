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

TEST(SpanBuffer, PushIndexIterateAcrossChunks)
{
    sim::Arena arena;
    obs::SpanBuffer buf(arena);
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

TEST(SpanBuffer, DropOldestRecyclesWithoutArenaGrowth)
{
    sim::Arena arena;
    obs::SpanBuffer buf(arena);

    // Prime: fill past a few chunks so the free list exists.
    obs::SpanRecord rec;
    for (std::uint64_t i = 0; i < 4 * obs::SpanBuffer::kChunkSize; ++i)
        buf.push_back(rec);
    const std::size_t chunks = arena.chunkCount();

    // Ring churn: many fill/drop cycles must reuse retired chunks,
    // never growing the arena again.
    for (int cycle = 0; cycle < 50; ++cycle) {
        buf.dropOldest(buf.size() - obs::SpanBuffer::kChunkSize);
        for (std::uint64_t i = 0; i < 3 * obs::SpanBuffer::kChunkSize;
             ++i)
            buf.push_back(rec);
    }
    EXPECT_EQ(arena.chunkCount(), chunks);

    // Drop everything: empty but reusable.
    buf.dropOldest(buf.size() + 100);
    EXPECT_TRUE(buf.empty());
    buf.push_back(rec);
    EXPECT_EQ(buf.size(), 1u);
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

// In-flight exports must survive arena teardown: snapshots and
// rendered JSON are copies, so clearing the tracer and resetting the
// simulation's arena afterwards cannot corrupt them.
TEST(SpanBuffer, ExportsSurviveClearAndArenaReset)
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    {
        obs::Span root =
            obs::Span::root(&tracer, "invoke", obs::Layer::Core, 1);
        obs::Span child(root.ctx(), "startup", obs::Layer::Sandbox, 1);
    }
    ASSERT_EQ(tracer.records().size(), 2u);
    const std::vector<obs::SpanRecord> snapshot =
        tracer.records().snapshot();

    tracer.clear();
    simu.arena().reset();
    // Clobber the arena region the old records occupied.
    char *clobber =
        static_cast<char *>(simu.arena().allocate(16 * 1024));
    std::memset(clobber, 0xab, 16 * 1024);

    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(std::string(snapshot[0].name), "startup");
    EXPECT_EQ(std::string(snapshot[1].name), "invoke");
    EXPECT_EQ(snapshot[0].pu, 1);
}

} // namespace
