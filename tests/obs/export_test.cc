/**
 * @file
 * Exporter tests (obs/export.hh).
 *
 * The Chrome trace-event JSON must be byte-deterministic for a given
 * record sequence and structurally sound (balanced envelope, matched
 * async and flow pairs, per-PU process metadata); the compact binary
 * form must round-trip every record field through writeBinary →
 * readBinary and reject corrupt input instead of mis-parsing it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "obs/trace.hh"

namespace {

using namespace molecule;

/**
 * A small synthetic trace: one cross-PU invocation (root on pu 0,
 * nIPC hop, sandbox exec on pu 1) plus a second single-PU trace.
 * Names are literals, as the Tracer contract requires.
 */
std::vector<obs::SpanRecord>
makeRecords()
{
    std::vector<obs::SpanRecord> recs;
    auto push = [&recs](std::uint64_t trace, std::uint64_t span,
                        std::uint64_t parent, const char *name,
                        obs::Layer layer, std::int64_t start,
                        std::int64_t end, int pu, const char *detail) {
        obs::SpanRecord r;
        r.traceId = trace;
        r.spanId = span;
        r.parentId = parent;
        r.name = name;
        r.layer = layer;
        r.start = start;
        r.end = end;
        r.pu = pu;
        r.arg = end - start;
        std::strncpy(r.detail, detail, sizeof(r.detail) - 1);
        recs.push_back(r);
    };
    // Children first: the order a real Tracer pushes them in.
    push(0xabcd, 2, 1, "startup", obs::Layer::Sandbox, 100, 4100, 0,
         "image-resize");
    push(0xabcd, 3, 1, "nipc.transfer", obs::Layer::Xpu, 4100, 4600, 0,
         "");
    push(0xabcd, 4, 1, "sandbox.exec", obs::Layer::Sandbox, 4600, 9600,
         1, "");
    push(0xabcd, 1, 0, "invoke", obs::Layer::Core, 100, 9600, 0,
         "image-resize");
    push(0xbeef, 5, 0, "invoke", obs::Layer::Core, 12000, 15000, 1,
         "helloworld");
    return recs;
}

/** Quote-aware brace/bracket balance (same check trace_report runs). */
bool
balanced(const std::string &text)
{
    long brace = 0, bracket = 0;
    bool inString = false, escape = false;
    for (char c : text) {
        if (escape) {
            escape = false;
            continue;
        }
        if (c == '\\') {
            escape = inString;
            continue;
        }
        if (c == '"') {
            inString = !inString;
            continue;
        }
        if (inString)
            continue;
        brace += c == '{' ? 1 : c == '}' ? -1 : 0;
        bracket += c == '[' ? 1 : c == ']' ? -1 : 0;
        if (brace < 0 || bracket < 0)
            return false;
    }
    return brace == 0 && bracket == 0 && !inString;
}

std::size_t
countOf(const std::string &text, const char *needle)
{
    std::size_t n = 0, pos = 0;
    const std::size_t len = std::strlen(needle);
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += len;
    }
    return n;
}

TEST(ChromeTrace, OutputIsByteDeterministic)
{
    const auto recs = makeRecords();
    EXPECT_EQ(obs::chromeTraceJson(recs), obs::chromeTraceJson(recs));
}

TEST(ChromeTrace, StructureIsSound)
{
    const std::string json = obs::chromeTraceJson(makeRecords());
    EXPECT_TRUE(balanced(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // One X (complete) event per span.
    EXPECT_EQ(countOf(json, "\"ph\":\"X\""), 5u);
    // One async begin/end pair per trace.
    EXPECT_EQ(countOf(json, "\"ph\":\"b\""), 2u);
    EXPECT_EQ(countOf(json, "\"ph\":\"e\""), 2u);
    // Flow events stitch the cross-PU trace: matched start/finish.
    EXPECT_EQ(countOf(json, "\"ph\":\"s\""),
              countOf(json, "\"ph\":\"f\""));
    EXPECT_GE(countOf(json, "\"ph\":\"s\""), 1u);
    // Per-PU process metadata rows the Perfetto UI groups tracks by.
    EXPECT_NE(json.find("pu0"), std::string::npos);
    EXPECT_NE(json.find("pu1"), std::string::npos);
    EXPECT_NE(json.find("\"sandbox\""), std::string::npos);
}

TEST(ChromeTrace, EmptyRecordListIsStillValid)
{
    const std::string json = obs::chromeTraceJson({});
    EXPECT_TRUE(balanced(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Binary, RoundTripPreservesEveryField)
{
    const auto recs = makeRecords();
    const std::string path = "obs_export_test.roundtrip.bin";
    ASSERT_TRUE(obs::writeBinary(path, recs));

    obs::LoadedTrace loaded = obs::readBinary(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    ASSERT_EQ(loaded.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto &a = recs[i];
        const auto &b = loaded.records[i];
        EXPECT_EQ(a.traceId, b.traceId);
        EXPECT_EQ(a.spanId, b.spanId);
        EXPECT_EQ(a.parentId, b.parentId);
        EXPECT_STREQ(a.name, b.name);
        EXPECT_EQ(a.layer, b.layer);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.pu, b.pu);
        EXPECT_EQ(a.arg, b.arg);
        EXPECT_STREQ(a.detail, b.detail);
    }
    std::remove(path.c_str());
}

TEST(Binary, MissingFileReportsError)
{
    obs::LoadedTrace loaded = obs::readBinary("does-not-exist.bin");
    EXPECT_FALSE(loaded.ok);
    EXPECT_FALSE(loaded.error.empty());
}

TEST(Binary, CorruptMagicIsRejected)
{
    const std::string path = "obs_export_test.corrupt.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRACEFILE-GARBAGE-BYTES";
    }
    obs::LoadedTrace loaded = obs::readBinary(path);
    EXPECT_FALSE(loaded.ok);
    std::remove(path.c_str());
}

} // namespace
