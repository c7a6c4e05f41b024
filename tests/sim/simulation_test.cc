/** @file Run-ahead resumption (simulation.hh): a delay, or a Join's
 * waiter, that wakes strictly before every pending event resumes in
 * place. Whatever the drive — run(), runUntil() or a step() loop,
 * which never runs ahead — a program must take the same steps at the
 * same sim times. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <ostream>
#include <tuple>
#include <vector>

#include "sim/analysis.hh"
#include "sim/random.hh"
#include "sim/sync.hh"

namespace {

using molecule::sim::HeldDelay;
using molecule::sim::Join;
using molecule::sim::Mailbox;
using molecule::sim::Rng;
using molecule::sim::Semaphore;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using molecule::sim::analysis::Tracked;

/** One logged step: what task @c task did at sim time @c when. */
struct Entry
{
    std::int64_t when = 0;
    int task = 0;
    int step = 0;
    /** Index of the runUntil() call it ran in (0 for run()/step()). */
    int segment = 0;

    bool
    operator==(const Entry &o) const
    {
        return std::tie(when, task, step, segment) ==
               std::tie(o.when, o.task, o.step, o.segment);
    }
};

std::ostream &
operator<<(std::ostream &os, const Entry &e)
{
    return os << "{t=" << e.when << " task=" << e.task
              << " step=" << e.step << " seg=" << e.segment << "}";
}

/** @name Step codes beyond a task's own step index */
///@{
constexpr int kGot = 1000;        // + mailbox value received
constexpr int kTimerFired = 2000; // + step that armed the timer
constexpr int kJoined = 3000;     // + children joined
constexpr int kDone = 4000;
///@}

/** Shared state of one random program. */
struct World
{
    World(Simulation &s, std::uint64_t programSeed)
        : sim(&s), sem(s, 2), box(s), seed(programSeed)
    {}

    void
    note(int task, int step)
    {
        log.push_back(Entry{sim->now().raw(), task, step, segment});
    }

    Simulation *sim;
    Semaphore sem;
    Mailbox<int> box;
    std::uint64_t seed;
    std::vector<Entry> log;
    int nextTask = 0;
    int nextValue = 0;
    int segment = 0;
};

/** Few, small delays: plenty of equal-time ties and zero delays. */
constexpr std::array<std::int64_t, 6> kDelays = {0, 1, 1, 2, 3, 5};

SimTime
pickDelay(Rng &rng)
{
    return SimTime(kDelays[std::size_t(rng.uniformInt(0, 5))]);
}

Task<>
putAfter(World *w, SimTime d, int value)
{
    co_await w->sim->delay(d);
    w->box.put(value);
}

/**
 * A random program: delays, nested spawn and Join::spawn, a
 * Semaphore burst through HeldDelay, a Mailbox receive fed by a
 * spawned putter, and timers.
 */
Task<>
program(World *w, int depth)
{
    const int id = w->nextTask++;
    Rng rng(w->seed * 7919 + std::uint64_t(id));
    const int steps = int(rng.uniformInt(3, 12));
    for (int step = 0; step < steps; ++step) {
        w->note(id, step);
        const std::int64_t op = rng.uniformInt(0, 9);
        const SimTime d = pickDelay(rng);
        if (op <= 3) {
            co_await w->sim->delay(d);
        } else if (op == 4) {
            co_await w->sim->delay(SimTime(0));
        } else if (op == 5 && depth < 2) {
            w->sim->spawn(program(w, depth + 1));
        } else if (op == 6 && depth < 2) {
            Join kids(*w->sim);
            kids.spawn(program(w, depth + 1));
            kids.spawn(program(w, depth + 1));
            co_await kids.wait();
        } else if (op == 7) {
            co_await w->sem.acquire();
            co_await HeldDelay(w->sem, w->sim->delay(d));
        } else if (op == 8) {
            w->sim->spawn(putAfter(w, d, w->nextValue++));
            const int v = co_await w->box.get();
            w->note(id, kGot + v);
        } else {
            const bool spawns = depth < 2 && rng.uniformInt(0, 1) == 1;
            w->sim->schedule(d, [w, id, step, spawns, depth] {
                w->note(id, kTimerFired + step);
                if (spawns)
                    w->sim->spawn(program(w, depth + 1));
            });
            if (rng.uniformInt(0, 1) == 1)
                co_await w->sim->delay(pickDelay(rng));
        }
    }
    w->note(id, kDone);
}

Task<> fanOut(World *w, int depth);

/** A fan-out child: a few delays, sometimes a fan-out of its own. */
Task<>
leaf(World *w, int depth)
{
    const int id = w->nextTask++;
    Rng rng(w->seed * 104729 + std::uint64_t(id));
    const int hops = int(rng.uniformInt(0, 3));
    for (int step = 0; step < hops; ++step) {
        w->note(id, step);
        co_await w->sim->delay(pickDelay(rng));
    }
    if (depth < 2 && rng.uniformInt(0, 2) == 0)
        co_await fanOut(w, depth + 1);
    w->note(id, kDone);
}

/**
 * Rounds of fork/join: start one to four children through a Join,
 * sometimes delay or arm a timer that may land on the instant the
 * last child finishes, then join them.
 */
Task<>
fanOut(World *w, int depth)
{
    const int id = w->nextTask++;
    Rng rng(w->seed * 7919 + std::uint64_t(id));
    const int rounds = int(rng.uniformInt(1, 4));
    for (int round = 0; round < rounds; ++round) {
        Join kids(*w->sim);
        const int n = int(rng.uniformInt(1, 4));
        for (int k = 0; k < n; ++k)
            kids.spawn(leaf(w, depth));
        const std::int64_t op = rng.uniformInt(0, 3);
        if (op == 0) {
            co_await w->sim->delay(pickDelay(rng));
        } else if (op == 1) {
            w->sim->schedule(pickDelay(rng), [w, id, round] {
                w->note(id, kTimerFired + round);
            });
        }
        co_await kids.wait();
        w->note(id, kJoined + n);
    }
    w->note(id, kDone);
}

enum class Drive { Run, RunUntil, Step };

/** Increasing deadlines (one repeated) for the runUntil() drive. */
std::vector<std::int64_t>
deadlinesFor(std::uint64_t seed)
{
    Rng rng(seed + 17);
    std::vector<std::int64_t> out;
    std::int64_t t = 0;
    for (int i = 0; i < 4; ++i) {
        t += rng.uniformInt(0, 6);
        out.push_back(t);
    }
    out.push_back(t);
    return out;
}

struct Played
{
    std::vector<Entry> log;
    std::uint64_t suspensions = 0;
    std::uint64_t inPlace = 0;
    /** Events fired from the queue. */
    std::uint64_t fired = 0;
};

/** A random program's root task. */
using Root = Task<> (*)(World *, int);

/** Play the program of @p seed to completion under @p drive. */
Played
play(std::uint64_t seed, Drive drive, Root root = program)
{
    Simulation sim(seed);
    World w(sim, seed);
    Rng rng(seed);
    const int roots = int(rng.uniformInt(1, 4));
    for (int i = 0; i < roots; ++i)
        sim.spawn(root(&w, 0));
    const SimTime later(rng.uniformInt(0, 9));
    sim.schedule(later, [&w, root] { w.sim->spawn(root(&w, 0)); });
    switch (drive) {
    case Drive::Run:
        sim.run();
        break;
    case Drive::RunUntil: {
        const std::vector<std::int64_t> deadlines = deadlinesFor(seed);
        for (std::size_t i = 0; i < deadlines.size(); ++i) {
            w.segment = int(i);
            sim.runUntil(SimTime(deadlines[i]));
            EXPECT_EQ(sim.now().raw(), deadlines[i]);
        }
        w.segment = int(deadlines.size());
        sim.run();
        break;
    }
    case Drive::Step:
        while (sim.step()) {
        }
        break;
    }
    EXPECT_EQ(sim.pendingEvents(), 0u);
    return Played{w.log, sim.delaySuspensions(), sim.delaysInPlace(),
                  sim.eventsFired()};
}

/** The runUntil() call an entry at @p when belongs in. */
int
segmentOf(std::int64_t when, const std::vector<std::int64_t> &deadlines)
{
    int seg = 0;
    while (std::size_t(seg) < deadlines.size() &&
           when > deadlines[std::size_t(seg)])
        ++seg;
    return seg;
}

TEST(RunAheadFuzz, RunAndRunUntilMatchAStepLoop)
{
    std::uint64_t inPlace = 0;
    std::uint64_t untilInPlace = 0;
    std::uint64_t suspensions = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const Played stepped = play(seed, Drive::Step);
        EXPECT_EQ(stepped.inPlace, 0u);

        const Played ran = play(seed, Drive::Run);
        ASSERT_EQ(ran.log, stepped.log);
        EXPECT_EQ(ran.suspensions, stepped.suspensions);
        inPlace += ran.inPlace;
        suspensions += ran.suspensions;

        std::vector<Entry> expected = stepped.log;
        const std::vector<std::int64_t> deadlines = deadlinesFor(seed);
        for (Entry &e : expected)
            e.segment = segmentOf(e.when, deadlines);
        const Played until = play(seed, Drive::RunUntil);
        ASSERT_EQ(until.log, expected);
        untilInPlace += until.inPlace;
    }
    // The programs take both paths, under either drive.
    EXPECT_GT(inPlace, 0u);
    EXPECT_LT(inPlace, suspensions);
    EXPECT_GT(untilInPlace, 0u);
    std::printf("in place: %llu of %llu delays under run(), %llu under "
                "runUntil()\n",
                static_cast<unsigned long long>(inPlace),
                static_cast<unsigned long long>(suspensions),
                static_cast<unsigned long long>(untilInPlace));
}

TEST(RunAheadFuzz, SameSeedSameInPlaceCount)
{
    const Played a = play(42, Drive::Run);
    const Played b = play(42, Drive::Run);
    EXPECT_EQ(a.inPlace, b.inPlace);
    EXPECT_EQ(a.suspensions, b.suspensions);
}

TEST(RunAheadFuzz, JoinFanOutsMatchAStepLoop)
{
    std::uint64_t joinsInPlace = 0;
    std::uint64_t delaysInPlace = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const Played stepped = play(seed, Drive::Step, fanOut);
        EXPECT_EQ(stepped.inPlace, 0u);

        const Played ran = play(seed, Drive::Run, fanOut);
        ASSERT_EQ(ran.log, stepped.log);
        EXPECT_EQ(ran.suspensions, stepped.suspensions);
        // Every wake-up that ran ahead is one event fewer.
        ASSERT_GE(stepped.fired - ran.fired, ran.inPlace);
        joinsInPlace += stepped.fired - ran.fired - ran.inPlace;
        delaysInPlace += ran.inPlace;

        std::vector<Entry> expected = stepped.log;
        const std::vector<std::int64_t> deadlines = deadlinesFor(seed);
        for (Entry &e : expected)
            e.segment = segmentOf(e.when, deadlines);
        ASSERT_EQ(play(seed, Drive::RunUntil, fanOut).log, expected);
    }
    EXPECT_GT(joinsInPlace, 0u);
    EXPECT_GT(delaysInPlace, 0u);
    std::printf("in place under run(): %llu Join waiters, %llu delays\n",
                static_cast<unsigned long long>(joinsInPlace),
                static_cast<unsigned long long>(delaysInPlace));
}

/** The longest run of delays resumed in place, as seen by the one
 * coroutine chain of a closed loop. */
struct Streaks
{
    std::uint64_t current = 0;
    std::uint64_t longest = 0;
};

/** One hop of a request: a child task, so finishing it resumes its
 * awaiter through a symmetric transfer. */
Task<>
hop(Simulation &sim, SimTime d, Streaks *s)
{
    const std::uint64_t before = sim.delaysInPlace();
    co_await sim.delay(d);
    s->current = sim.delaysInPlace() > before ? s->current + 1 : 0;
    s->longest = std::max(s->longest, s->current);
}

Task<>
request(Simulation &sim, int r, Streaks *s)
{
    for (int i = 0; i < 3; ++i)
        co_await hop(sim, SimTime(1 + (r + i) % 3), s);
}

/** A client that sends its next request when the last one ends:
 * with nothing else pending, every delay could run ahead. */
Task<>
closedLoop(Simulation &sim, int requests, Streaks *s,
           std::vector<std::int64_t> *done)
{
    for (int r = 0; r < requests; ++r) {
        co_await request(sim, r, s);
        done->push_back(sim.now().raw());
    }
}

TEST(RunAheadFuzz, DeepClosedLoopStreaksStayBounded)
{
    // 60k delays in one chain: unbounded, the in-place resumptions of
    // one fired event would nest that many transfers in unoptimised
    // builds and overflow the stack.
    constexpr int kRequests = 20000;
    auto playLoop = [](bool step, Streaks *s) {
        Simulation sim;
        std::vector<std::int64_t> done;
        sim.spawn(closedLoop(sim, kRequests, s, &done));
        if (step) {
            while (sim.step()) {
            }
        } else {
            sim.run();
        }
        EXPECT_EQ(sim.delaySuspensions(), 3u * kRequests);
        return done;
    };
    Streaks stepped;
    Streaks ran;
    const std::vector<std::int64_t> want = playLoop(true, &stepped);
    ASSERT_EQ(want.size(), std::size_t(kRequests));
    EXPECT_EQ(playLoop(false, &ran), want);
    EXPECT_EQ(stepped.longest, 0u);
    EXPECT_EQ(ran.longest, Simulation::kMaxRunAheadStreak);
}

Task<>
noteAfter(Simulation &sim, SimTime d, int tag, std::vector<int> *log)
{
    co_await sim.delay(d);
    log->push_back(tag);
}

Task<>
twoHops(Simulation &sim, SimTime a, SimTime b, int tag,
        std::vector<int> *log)
{
    co_await sim.delay(a);
    co_await sim.delay(b);
    log->push_back(tag);
}

TEST(RunAhead, EqualTimeWakeQueuesBehindTheOlderEvent)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn(noteAfter(sim, SimTime(10), 1, &log));
    // Wakes at 4, then asks for 10 again: the older event at 10 holds
    // the smaller sequence number and fires first.
    sim.spawn(twoHops(sim, SimTime(4), SimTime(6), 2, &log));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.delaysInPlace(), 0u);
}

/** (sim time, tag) pairs. */
using Timeline = std::vector<std::pair<std::int64_t, int>>;

Task<>
child(Simulation &sim, int tag, Timeline *log)
{
    co_await sim.delay(SimTime(1));
    log->emplace_back(sim.now().raw(), tag);
}

Task<>
spawner(Simulation &sim, Timeline *log)
{
    co_await sim.delay(SimTime(1)); // resumed by run() from here on
    sim.spawn(child(sim, 10, log));
    log->emplace_back(sim.now().raw(), 1);
    co_await sim.delay(SimTime(5));
    log->emplace_back(sim.now().raw(), 2);
}

Task<>
joiner(Simulation &sim, Timeline *log)
{
    co_await sim.delay(SimTime(1));
    Join kids(sim);
    kids.spawn(child(sim, 10, log));
    kids.spawn(child(sim, 11, log));
    log->emplace_back(sim.now().raw(), 1);
    co_await kids.wait();
    log->emplace_back(sim.now().raw(), 2);
}

TEST(RunAhead, SpawnedChildNeverRunsAheadOfItsSpawner)
{
    Simulation sim;
    Timeline log;
    sim.spawn(spawner(sim, &log));
    sim.run();
    EXPECT_EQ(log, (Timeline{{1, 1}, {2, 10}, {6, 2}}));
}

TEST(RunAhead, JoinChildNeverRunsAheadOfItsParent)
{
    Simulation sim;
    Timeline log;
    sim.spawn(joiner(sim, &log));
    sim.run();
    EXPECT_EQ(log, (Timeline{{1, 1}, {2, 10}, {2, 11}, {2, 2}}));
}

Task<>
joinOne(Simulation &sim, Timeline *log)
{
    co_await sim.delay(SimTime(1));
    Join kids(sim);
    kids.spawn(child(sim, 10, log));
    // Armed after the child's wake-up, for the same instant.
    sim.schedule(SimTime(1), [&sim, log] {
        log->emplace_back(sim.now().raw(), 20);
    });
    co_await kids.wait();
    log->emplace_back(sim.now().raw(), 2);
}

TEST(RunAhead, JoinWaiterQueuesBehindAnEventAtTheSameInstant)
{
    // The timer at 2 is still pending when the child finishes at 2,
    // so the waiter is queued behind it, as a step() loop runs it.
    for (const bool step : {false, true}) {
        Simulation sim;
        Timeline log;
        sim.spawn(joinOne(sim, &log));
        if (step) {
            while (sim.step()) {
            }
        } else {
            sim.run();
        }
        EXPECT_EQ(log, (Timeline{{2, 10}, {2, 20}, {2, 2}}));
        // The child's wake-up, the timer and the waiter's.
        EXPECT_EQ(sim.eventsFired(), 4u);
    }
}

TEST(RunAhead, LastChildWakesItsWaiterInPlace)
{
    Simulation sim;
    Timeline log;
    sim.spawn(joiner(sim, &log));
    sim.run();
    EXPECT_EQ(log, (Timeline{{1, 1}, {2, 10}, {2, 11}, {2, 2}}));
    // The joiner's first delay and the two children's: the waiter
    // resumed inside the last child's final suspend.
    EXPECT_EQ(sim.eventsFired(), 3u);
    EXPECT_EQ(sim.delaysInPlace(), 0u);

    Simulation stepped;
    Timeline steppedLog;
    stepped.spawn(joiner(stepped, &steppedLog));
    while (stepped.step()) {
    }
    EXPECT_EQ(steppedLog, log);
    EXPECT_EQ(stepped.eventsFired(), 4u);
}

/** One hop of a closed loop's request, run as a Join's only child. */
Task<>
lonelyChild(Simulation &sim, SimTime d)
{
    co_await sim.delay(d);
}

/** A client whose every request is a Join of one child. */
Task<>
joinLoop(Simulation &sim, int requests, std::vector<std::int64_t> *done)
{
    for (int r = 0; r < requests; ++r) {
        Join kids(sim);
        kids.spawn(lonelyChild(sim, SimTime(1 + r % 3)));
        co_await kids.wait();
        done->push_back(sim.now().raw());
    }
}

TEST(RunAheadFuzz, JoinClosedLoopMatchesAStepLoop)
{
    // 60k single-child Joins in one chain. Each child's delay is made
    // inside Join::spawn and queued; its finish wakes the waiter in
    // place, and the waiter's next Join ends the streak.
    constexpr int kRequests = 60000;
    auto playLoop = [](bool step, std::uint64_t *fired) {
        Simulation sim;
        std::vector<std::int64_t> done;
        sim.spawn(joinLoop(sim, kRequests, &done));
        if (step) {
            while (sim.step()) {
            }
        } else {
            sim.run();
        }
        *fired = sim.eventsFired();
        return done;
    };
    std::uint64_t steppedFired = 0;
    std::uint64_t ranFired = 0;
    const std::vector<std::int64_t> want = playLoop(true, &steppedFired);
    ASSERT_EQ(want.size(), std::size_t(kRequests));
    EXPECT_EQ(playLoop(false, &ranFired), want);
    EXPECT_EQ(steppedFired, 2u * kRequests);
    EXPECT_EQ(ranFired, std::uint64_t(kRequests));
}

/**
 * Level @p level of a chain of single-child Joins @p levels deep: it
 * starts the next level and waits for it. As it wakes, it notes how
 * many events have fired, so the levels woken under one event show
 * up as a run of equal counts.
 */
Task<>
joinLevel(Simulation &sim, int level, int levels,
          std::vector<std::uint64_t> *woke)
{
    // Queued (the level is started inline), so building the chain
    // nests no frames on the stack.
    co_await sim.delay(SimTime(1));
    if (level == levels)
        co_return;
    Join next(sim);
    next.spawn(joinLevel(sim, level + 1, levels, woke));
    co_await next.wait();
    woke->push_back(sim.eventsFired());
}

/** The most levels woken under one event. */
std::size_t
longestStreak(const std::vector<std::uint64_t> &woke)
{
    std::size_t longest = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < woke.size(); ++i) {
        run = i > 0 && woke[i] == woke[i - 1] ? run + 1 : 1;
        longest = std::max(longest, run);
    }
    return longest;
}

TEST(RunAheadFuzz, DeepJoinChainStreaksStayBounded)
{
    // When the deepest of 60k nested Joins finishes, each waiter it
    // wakes in place finishes too and wakes the next, one frame
    // deeper on the stack: unbounded, that overflows it. After
    // kMaxRunAheadStreak in place the next waiter is queued.
    constexpr int kLevels = 60000;
    auto playChain = [](bool step) {
        Simulation sim;
        std::vector<std::uint64_t> woke;
        sim.spawn(joinLevel(sim, 0, kLevels, &woke));
        if (step) {
            while (sim.step()) {
            }
        } else {
            sim.run();
        }
        EXPECT_EQ(sim.now(), SimTime(kLevels + 1));
        EXPECT_EQ(woke.size(), std::size_t(kLevels));
        return woke;
    };
    EXPECT_EQ(longestStreak(playChain(true)), 1u);
    // One queued waiter, then the streak's in-place ones.
    EXPECT_EQ(longestStreak(playChain(false)),
              Simulation::kMaxRunAheadStreak + 1);
}

Task<>
chain(Simulation &sim, int hops, std::vector<std::int64_t> *log)
{
    for (int i = 0; i < hops; ++i) {
        co_await sim.delay(SimTime(1));
        log->push_back(sim.now().raw());
    }
}

TEST(RunAhead, NothingPassesARunUntilDeadline)
{
    Simulation sim;
    std::vector<std::int64_t> log;
    sim.spawn(chain(sim, 100, &log));
    sim.runUntil(SimTime(50));
    EXPECT_EQ(sim.now(), SimTime(50));
    ASSERT_EQ(log.size(), 50u);
    EXPECT_EQ(log.back(), 50);
    sim.runUntil(SimTime(50));
    EXPECT_EQ(log.size(), 50u);
    sim.run();
    ASSERT_EQ(log.size(), 100u);
    EXPECT_EQ(log.back(), 100);
    // Queued: the first delay (inside spawn) and the one past 50.
    EXPECT_EQ(sim.delaysInPlace(), 98u);
}

Task<>
writeAt5(Simulation &sim, Tracked<int> *cell)
{
    co_await sim.delay(SimTime(1));
    co_await sim.delay(SimTime(4));
    cell->write(1);
}

/** The write at t=5 behind a t=1 write, both from events scheduled
 * at t=0. @return the delays that ran ahead. */
std::uint64_t
playWrites(Simulation &sim, Tracked<int> *cell)
{
    sim.schedule(SimTime(1), [cell] { cell->write(2); });
    sim.spawn(writeAt5(sim, cell));
    sim.run();
    return sim.delaysInPlace();
}

TEST(RunAhead, ConflictTrackingTurnsItOff)
{
    {
        // Untracked, the second delay runs ahead.
        Simulation sim;
        Tracked<int> cell{0, "fixture.cell"};
        EXPECT_EQ(playWrites(sim, &cell), 1u);
    }
    // Tracked, it is queued: a write run ahead would be logged under
    // the t=1 event and pair with the other t=1 write as a conflict.
    Simulation sim;
    sim.enableConflictTracking();
    Tracked<int> cell{0, "fixture.cell"};
    EXPECT_EQ(playWrites(sim, &cell), 0u);
    const auto records = sim.accessLog()->snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].when, 1);
    EXPECT_EQ(records[1].when, 5);
    EXPECT_TRUE(sim.accessLog()->findConflicts().empty());
}

TEST(RunAhead, TrackingSwitchedOnMidRunStopsIt)
{
    Simulation sim;
    std::vector<std::int64_t> log;
    sim.spawn(chain(sim, 20, &log));
    sim.schedule(SimTime(5), [&sim] { sim.enableConflictTracking(); });
    sim.run();
    EXPECT_EQ(log.size(), 20u);
    // Delays made before t=5 run ahead up to the wake at 5, behind
    // which the tracking event waits; none after it does.
    EXPECT_EQ(sim.delaysInPlace(), 3u);
}

TEST(RunAhead, StepFiresExactlyOneEvent)
{
    Simulation sim;
    std::vector<std::int64_t> log;
    sim.spawn(chain(sim, 5, &log));
    for (std::size_t k = 1; k <= 5; ++k) {
        ASSERT_TRUE(sim.step());
        EXPECT_EQ(log.size(), k);
        EXPECT_EQ(sim.now(), SimTime(std::int64_t(k)));
        EXPECT_EQ(sim.pendingEvents(), k < 5 ? 1u : 0u);
    }
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(sim.delaysInPlace(), 0u);
}

TEST(RunAhead, StepInsideRunStillFiresOneEvent)
{
    Simulation sim;
    std::vector<std::int64_t> log;
    sim.spawn(chain(sim, 3, &log));
    std::size_t seenAfterStep = 0;
    // Fires before the chain's first wake: the nested step() takes
    // that one event, and the chain must not run on inside it.
    sim.schedule(SimTime(0), [&] {
        ASSERT_TRUE(sim.step());
        seenAfterStep = log.size();
    });
    sim.run();
    EXPECT_EQ(seenAfterStep, 1u);
    EXPECT_EQ(log, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(RunAhead, LoneChainRunsAheadOnEveryDelay)
{
    Simulation sim;
    std::vector<std::int64_t> log;
    sim.spawn(chain(sim, 100, &log));
    sim.run();
    EXPECT_EQ(sim.now(), SimTime(100));
    EXPECT_EQ(sim.delaySuspensions(), 100u);
    // Every delay but the first, which is made inside spawn().
    EXPECT_EQ(sim.delaysInPlace(), 99u);
}

TEST(RunAhead, InterleavedChainsNeverRunAhead)
{
    Simulation sim;
    std::vector<std::int64_t> a;
    std::vector<std::int64_t> b;
    // Each wake-up lands at the same time as the other chain's older
    // one, or behind it.
    sim.spawn(chain(sim, 100, &a));
    sim.spawn(chain(sim, 100, &b));
    sim.run();
    EXPECT_EQ(a.back(), 100);
    EXPECT_EQ(b.back(), 100);
    EXPECT_EQ(sim.delaySuspensions(), 200u);
    EXPECT_EQ(sim.delaysInPlace(), 0u);
}

} // namespace
