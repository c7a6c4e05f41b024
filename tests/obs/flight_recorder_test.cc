/**
 * @file
 * FlightRecorder black-box tests (obs/flight_recorder.hh).
 *
 * The recorder must keep a bounded window ring (older windows fall
 * off), serialize a complete bundle on trigger (reason, trigger
 * instant, windows, alerts), stop dumping past maxDumps while still
 * counting triggers, reproduce bundles byte-for-byte across runs, and
 * persist the newest bundle via writeLast.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace {

using namespace molecule;
using sim::SimTime;

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** Close @p windows 100ms windows, one counter tick in each. */
void
closeWindows(sim::Simulation &sim, obs::TimeSeries &ts, int windows)
{
    const auto id = ts.counterId("tick");
    for (int w = 0; w < windows; ++w)
        sim.schedule(SimTime::milliseconds(w * 100 + 50),
                     [&ts, id] { ts.count(id); });
    sim.run();
    ts.flush();
}

TEST(FlightRecorder, RingIsBoundedToKeepWindows)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim, {SimTime::milliseconds(100)});
    obs::FlightRecorderOptions opts;
    opts.keepWindows = 3;
    opts.spanTail = 0;
    obs::FlightRecorder recorder(ts, opts);

    closeWindows(sim, ts, 10);
    recorder.trigger("test.ring", sim.now());

    ASSERT_EQ(recorder.dumpCount(), 1u);
    const std::string &dump = recorder.dumps().front();
    // Only the newest 3 of the 10 closed windows survive the ring.
    EXPECT_EQ(countOccurrences(dump, "\"window\":"), 3u);
    EXPECT_NE(dump.find("\"window\":9"), std::string::npos);
    EXPECT_EQ(dump.find("\"window\":6"), std::string::npos);
}

TEST(FlightRecorder, BundleCarriesReasonTriggerAndAlerts)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim, {SimTime::milliseconds(100)});
    obs::FlightRecorder recorder(ts);

    obs::AlertEvent alert;
    alert.at = SimTime::milliseconds(250);
    alert.window = 2;
    alert.tenant = 1;
    alert.fired = true;
    recorder.onAlert(alert);

    closeWindows(sim, ts, 4);
    recorder.trigger("fault.pu-crash", sim.now());

    ASSERT_EQ(recorder.dumpCount(), 1u);
    const std::string &dump = recorder.dumps().front();
    EXPECT_NE(dump.find("\"reason\":\"fault.pu-crash\""),
              std::string::npos);
    EXPECT_NE(dump.find("\"tenant\":1"), std::string::npos);
    EXPECT_NE(dump.find("\"fired\":true"), std::string::npos);
    // Window records only ("window": also appears in alert JSON).
    EXPECT_EQ(countOccurrences(dump, "\"start_ns\":"), 4u);
}

TEST(FlightRecorder, MaxDumpsSuppressesButTriggersKeepCounting)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim, {SimTime::milliseconds(100)});
    obs::FlightRecorderOptions opts;
    opts.maxDumps = 2;
    obs::FlightRecorder recorder(ts, opts);

    closeWindows(sim, ts, 2);
    recorder.trigger("first", sim.now());
    recorder.trigger("second", sim.now());
    recorder.trigger("suppressed", sim.now());
    recorder.trigger("also-suppressed", sim.now());

    EXPECT_EQ(recorder.triggerCount(), 4u);
    ASSERT_EQ(recorder.dumpCount(), 2u);
    // First-triggers win: the retained bundles are the earliest two.
    EXPECT_NE(recorder.dumps()[0].find("\"reason\":\"first\""),
              std::string::npos);
    EXPECT_NE(recorder.dumps()[1].find("\"reason\":\"second\""),
              std::string::npos);
}

TEST(FlightRecorder, BundlesReproduceByteForByte)
{
    const auto run = [] {
        sim::Simulation sim(7);
        obs::TimeSeries ts(sim, {SimTime::milliseconds(100)});
        obs::FlightRecorder recorder(ts);
        const auto lat = ts.histogramId("tenant.e2e_us", 0);
        for (int w = 0; w < 5; ++w)
            sim.schedule(SimTime::milliseconds(w * 100 + 10),
                         [&ts, lat, w] {
                             ts.observe(lat, 100.0 * (w + 1));
                         });
        sim.run();
        ts.flush();
        recorder.trigger("replay.check", sim.now());
        return recorder.dumps().front();
    };
    const std::string a = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run());
}

TEST(FlightRecorder, WriteLastPersistsNewestBundle)
{
    sim::Simulation sim(1);
    obs::TimeSeries ts(sim, {SimTime::milliseconds(100)});
    obs::FlightRecorder recorder(ts);

    EXPECT_FALSE(recorder.writeLast("fr_test_dump.json")); // no bundle

    closeWindows(sim, ts, 3);
    recorder.trigger("older", SimTime::milliseconds(100));
    recorder.trigger("newest", sim.now());
    ASSERT_TRUE(recorder.writeLast("fr_test_dump.json"));

    std::ifstream in("fr_test_dump.json");
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), recorder.dumps().back());
    EXPECT_NE(buf.str().find("\"reason\":\"newest\""),
              std::string::npos);
}

} // namespace
