/**
 * @file
 * Unit tests for bench::PerfSnapshot, the BENCH_*.json writer that
 * perf_check compares against the committed snapshots.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/common.hh"

namespace {

using molecule::bench::PerfSnapshot;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// A filtered run records only some of the pre-registered baselines; an
// entry that never ran must not be written as a zero value.
TEST(PerfSnapshot, WritesOnlyRecordedEntries)
{
    PerfSnapshot snap("items_per_second");
    snap.baseline("BM_Ran", 100.0);
    snap.baseline("BM_Filtered", 200.0);
    snap.record("BM_Ran", 150.0);

    const std::string path =
        ::testing::TempDir() + "perf_snapshot_test.json";
    ASSERT_TRUE(snap.writeJson(path));
    const std::string json = slurp(path);
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"BM_Ran\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"speedup\": 1.500"), std::string::npos) << json;
    EXPECT_EQ(json.find("BM_Filtered"), std::string::npos) << json;
    EXPECT_EQ(json.find("\"value\": 0.0"), std::string::npos) << json;
}

} // namespace
