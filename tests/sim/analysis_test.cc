/**
 * @file
 * Sim-time conflict detector tests (sim/analysis.hh).
 *
 * The seeded true-positive fixture and the suppression cases pin the
 * detector's contract: a pair of same-instant accesses to one tracked
 * cell from two *pre-scheduled* events (at least one write) is
 * reported with both source sites; causal same-instant chains, pure
 * reads, and distinct instants are not.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/analysis.hh"
#include "sim/simulation.hh"

namespace {

using namespace molecule::sim;
using analysis::Tracked;
using analysis::AccessKind;
using analysis::AccessLog;
using analysis::Conflict;

TEST(Tracked, PassthroughSemantics)
{
    Tracked<int> cell{7, "test.cell"};
    EXPECT_EQ(cell.peek(), 7);
    EXPECT_EQ(cell.read(), 7);
    cell.write(9);
    EXPECT_EQ(cell.peek(), 9);
    EXPECT_EQ(cell.fetchAdd(3), 9);
    EXPECT_EQ(cell.peek(), 12);
    cell.writeRef() += 1;
    EXPECT_EQ(cell.peek(), 13);
    EXPECT_STREQ(cell.name(), "test.cell");
}

TEST(Tracked, AccessOutsideTrackingIsIgnored)
{
    // No simulation, no log installed: accessors must be plain
    // passthrough (this is also the runtime-off configuration).
    EXPECT_EQ(analysis::AccessLog::current(), nullptr);
    Tracked<int> cell{1, "test.cell"};
    cell.write(2);
    EXPECT_EQ(cell.read(), 2);
}

TEST(ConflictDetector, TrackingOffByDefault)
{
    Simulation sim;
    EXPECT_EQ(sim.accessLog(), nullptr);
}

/** The seeded true-positive fixture: two same-tick writes, one cell. */
TEST(ConflictDetector, ReportsSameTickWriteWrite)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    // Two independent events, both scheduled at t=0, both firing at
    // t=10us: their order is pure schedule-sequence tie-break.
    sim.schedule(SimTime::microseconds(10), [&] { cell.write(1); });
    sim.schedule(SimTime::microseconds(10), [&] { cell.write(2); });
    sim.run();

    ASSERT_NE(sim.accessLog(), nullptr);
    EXPECT_EQ(sim.accessLog()->recordCount(), 2u);
    const auto conflicts = sim.accessLog()->findConflicts();
    ASSERT_EQ(conflicts.size(), 1u);

    const Conflict &c = conflicts[0];
    EXPECT_STREQ(c.cellName, "fixture.cell");
    EXPECT_EQ(c.when, SimTime::microseconds(10).raw());
    EXPECT_EQ(c.a.kind, AccessKind::Write);
    EXPECT_EQ(c.b.kind, AccessKind::Write);
    // Both scheduling call sites are named: this file, two distinct
    // lines, the earlier-scheduled event first.
    EXPECT_NE(std::strstr(c.a.file, "analysis_test.cc"), nullptr);
    EXPECT_NE(std::strstr(c.b.file, "analysis_test.cc"), nullptr);
    EXPECT_NE(c.a.line, c.b.line);
    EXPECT_LT(c.a.eventSeq, c.b.eventSeq);
    // Both events were pre-scheduled (at t=0, firing at t=10us).
    EXPECT_EQ(c.a.schedAt, 0);
    EXPECT_EQ(c.b.schedAt, 0);
    // The rendering names the cell and both sites.
    const std::string text = analysis::describe(c);
    EXPECT_NE(text.find("fixture.cell"), std::string::npos);
    EXPECT_NE(text.find("analysis_test.cc"), std::string::npos);
}

TEST(ConflictDetector, ReportsSameTickWriteRead)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};
    int seen = -1;

    sim.schedule(SimTime::microseconds(5), [&] { cell.write(1); });
    sim.schedule(SimTime::microseconds(5), [&] { seen = cell.read(); });
    sim.run();

    const auto conflicts = sim.accessLog()->findConflicts();
    ASSERT_EQ(conflicts.size(), 1u);
    EXPECT_EQ(conflicts[0].a.kind, AccessKind::Write);
    EXPECT_EQ(conflicts[0].b.kind, AccessKind::Read);
    EXPECT_EQ(seen, 1); // FIFO tie-break: the write fired first
}

TEST(ConflictDetector, ReadReadIsNotAConflict)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{3, "fixture.cell"};

    sim.schedule(SimTime::microseconds(5), [&] { (void)cell.read(); });
    sim.schedule(SimTime::microseconds(5), [&] { (void)cell.read(); });
    sim.run();

    EXPECT_EQ(sim.accessLog()->recordCount(), 2u);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, DistinctTicksAreNotAConflict)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    sim.schedule(SimTime::microseconds(5), [&] { cell.write(1); });
    sim.schedule(SimTime::microseconds(6), [&] { cell.write(2); });
    sim.run();

    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, CausalSameTickChainIsSuppressed)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    // The second write happens at the same instant, but its event is
    // scheduled *at* that instant by the first one — causally ordered,
    // not tie-break dependent.
    sim.schedule(SimTime::microseconds(5), [&sim, &cell] {
        cell.write(1);
        sim.schedule(SimTime(0), [&cell] { cell.write(2); });
    });
    sim.run();

    EXPECT_EQ(sim.accessLog()->recordCount(), 2u);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, SameEventAccessesAreNotAConflict)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    sim.schedule(SimTime::microseconds(5), [&] {
        cell.write(1);
        cell.write(2);
        (void)cell.read();
    });
    sim.run();

    EXPECT_EQ(sim.accessLog()->recordCount(), 3u);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, CancelledEventLeavesNoTrace)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    sim.schedule(SimTime::microseconds(5), [&] { cell.write(1); });
    const EventId id =
        sim.schedule(SimTime::microseconds(5), [&] { cell.write(2); });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();

    EXPECT_EQ(sim.accessLog()->recordCount(), 1u);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
    EXPECT_EQ(cell.peek(), 1);
}

TEST(ConflictDetector, DistinctCellsDoNotInterfere)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> a{0, "fixture.a"};
    Tracked<int> b{0, "fixture.b"};

    sim.schedule(SimTime::microseconds(5), [&] { a.write(1); });
    sim.schedule(SimTime::microseconds(5), [&] { b.write(1); });
    sim.run();

    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, RingBufferDropsOldestAndCounts)
{
    Simulation sim;
    sim.enableConflictTracking(/*capacity=*/4);
    Tracked<int> cell{0, "fixture.cell"};

    for (int i = 1; i <= 8; ++i) {
        sim.schedule(SimTime::microseconds(i),
                     [&cell] { cell.writeRef() += 1; });
    }
    sim.run();

    auto *log = sim.accessLog();
    EXPECT_EQ(log->recordCount(), 4u);
    EXPECT_EQ(log->droppedRecords(), 4u);
    // The survivors are the most recent accesses, oldest first.
    const auto snap = log->snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().when, SimTime::microseconds(5).raw());
    EXPECT_EQ(snap.back().when, SimTime::microseconds(8).raw());
}

TEST(ConflictDetector, ScopeRestoresAfterRun)
{
    Simulation sim;
    sim.enableConflictTracking();
    sim.schedule(SimTime::microseconds(1), [] {});
    sim.run();
    EXPECT_EQ(AccessLog::current(), nullptr);
}

TEST(ConflictDetector, ClearResetsTheLog)
{
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};
    sim.schedule(SimTime::microseconds(5), [&] { cell.write(1); });
    sim.schedule(SimTime::microseconds(5), [&] { cell.write(2); });
    sim.run();
    ASSERT_EQ(sim.accessLog()->findConflicts().size(), 1u);

    sim.accessLog()->clear();
    EXPECT_EQ(sim.accessLog()->recordCount(), 0u);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(ConflictDetector, CoroutineDelaysLandingOnSameTickAreReported)
{
    // The model-shaped version of the hazard: two coroutines whose
    // delays end on the same tick, both mutating one cell.
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};

    auto worker = [](Simulation &s, Tracked<int> &c,
                     SimTime d) -> Task<> {
        co_await s.delay(d);
        c.writeRef() += 1;
    };
    sim.spawn(worker(sim, cell, SimTime::microseconds(3)));
    sim.spawn(worker(sim, cell, SimTime::microseconds(3)));
    sim.run();

    EXPECT_EQ(cell.peek(), 2);
    EXPECT_EQ(sim.accessLog()->findConflicts().size(), 1u);
}

} // namespace
