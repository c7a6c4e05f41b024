/** @file Unit tests for coroutine tasks over the simulation driver. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/task.hh"

/**
 * Global allocation counter for the frame-recycling test: every
 * operator new in this binary bumps it (malloc-backed, otherwise the
 * default behavior). Left out under ASan, whose own operator new
 * checks new/delete pairing; the test skips there.
 */
static std::uint64_t g_allocCount = 0;

#if !defined(__SANITIZE_ADDRESS__)

// Malloc-backed on purpose; GCC's mismatched-new-delete heuristic
// cannot see that new and delete still pair up.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++g_allocCount;
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    ++g_allocCount;
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

#endif

namespace {

using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

Task<>
sleeper(Simulation &sim, SimTime t, std::vector<SimTime> *log)
{
    co_await sim.delay(t);
    log->push_back(sim.now());
}

TEST(Task, DelayAdvancesClock)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 10_us);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(Task, ParallelTasksInterleaveByTime)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 30_us, &log));
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.spawn(sleeper(sim, 20_us, &log));
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], 10_us);
    EXPECT_EQ(log[1], 20_us);
    EXPECT_EQ(log[2], 30_us);
}

/** Ready when @p fast, else a real coroutine that takes 1 us. */
Task<int>
maybeReady(Simulation &sim, bool fast)
{
    if (fast)
        return Task<int>::ready(1);
    return [](Simulation &s) -> Task<int> {
        co_await s.delay(1_us);
        co_return 2;
    }(sim);
}

Task<>
readyAwaiter(Simulation &sim, std::vector<std::string> *log)
{
    const int a = co_await maybeReady(sim, true);
    log->push_back(std::to_string(a) + "@" +
                   std::to_string(sim.now().raw()));
    const int b = co_await maybeReady(sim, false);
    log->push_back(std::to_string(b) + "@" +
                   std::to_string(sim.now().raw()));
    co_await Task<>::ready();
    log->push_back("void");
}

TEST(Task, ReadyTasksCompleteWithoutSuspending)
{
    Simulation sim;
    std::vector<std::string> log;
    sim.spawn(readyAwaiter(sim, &log));
    // Everything up to the first real suspension ran inside spawn().
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], "1@0");
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[1], "2@" + std::to_string((1_us).raw()));
    EXPECT_EQ(log[2], "void");

    Task<int> t = Task<int>::ready(7);
    EXPECT_TRUE(t.valid());
    EXPECT_TRUE(t.done());
    Task<int> moved = std::move(t);
    EXPECT_FALSE(t.valid()); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.done());
    sim.spawn(Task<>::ready()); // a no-op root task
    EXPECT_FALSE(Task<int>().valid());
}

Task<int>
answer(Simulation &sim)
{
    co_await sim.delay(1_us);
    co_return 42;
}

Task<>
asker(Simulation &sim, int *out)
{
    *out = co_await answer(sim);
}

TEST(Task, ChildTaskReturnsValue)
{
    Simulation sim;
    int out = 0;
    sim.spawn(asker(sim, &out));
    sim.run();
    EXPECT_EQ(out, 42);
    EXPECT_EQ(sim.now(), 1_us);
}

Task<int>
twoStage(Simulation &sim)
{
    int a = co_await answer(sim);
    int b = co_await answer(sim);
    co_return a + b;
}

Task<>
nestedAsker(Simulation &sim, int *out)
{
    *out = co_await twoStage(sim);
}

TEST(Task, NestedChildrenAccumulateTime)
{
    Simulation sim;
    int out = 0;
    sim.spawn(nestedAsker(sim, &out));
    sim.run();
    EXPECT_EQ(out, 84);
    EXPECT_EQ(sim.now(), 2_us);
}

Task<int>
thrower(Simulation &sim)
{
    co_await sim.delay(1_us);
    throw std::runtime_error("boom");
}

Task<>
catcher(Simulation &sim, bool *caught)
{
    try {
        (void)co_await thrower(sim);
    } catch (const std::runtime_error &e) {
        *caught = std::string(e.what()) == "boom";
    }
}

TEST(Task, ExceptionsPropagateThroughAwait)
{
    Simulation sim;
    bool caught = false;
    sim.spawn(catcher(sim, &caught));
    sim.run();
    EXPECT_TRUE(caught);
}

Task<>
synchronous(int *out)
{
    *out = 7;
    co_return;
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspend)
{
    Simulation sim;
    int out = 0;
    sim.spawn(synchronous(&out));
    // No sim.run() needed: the task never suspended.
    EXPECT_EQ(out, 7);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Task, UnstartedTaskIsDestroyedCleanly)
{
    Simulation sim;
    int out = 0;
    {
        Task<> t = synchronous(&out);
        EXPECT_TRUE(t.valid());
        // dropped without starting
    }
    EXPECT_EQ(out, 0);
}

Task<>
spawnerChain(Simulation &sim, int depth, int *count)
{
    ++*count;
    if (depth > 0) {
        co_await sim.delay(1_us);
        sim.spawn(spawnerChain(sim, depth - 1, count));
    }
}

TEST(Task, TasksCanSpawnTasks)
{
    Simulation sim;
    int count = 0;
    sim.spawn(spawnerChain(sim, 10, &count));
    sim.run();
    EXPECT_EQ(count, 11);
    EXPECT_EQ(sim.now(), 10_us);
}

Task<int>
leafStep(Simulation &sim, int v)
{
    co_await sim.delay(1_ns);
    co_return v + 1;
}

Task<int>
innerStep(Simulation &sim, int v)
{
    const int a = co_await leafStep(sim, v);
    const int b = co_await leafStep(sim, a);
    co_return b;
}

/** Awaits child tasks in a loop; records the allocation count once
 * the warm-up rounds are done and again at the end. */
Task<>
steadyLoop(Simulation &sim, int warmup, int rounds, std::uint64_t *atStart,
           std::uint64_t *atEnd, int *sum)
{
    for (int i = 0; i < warmup + rounds; ++i) {
        if (i == warmup)
            *atStart = g_allocCount;
        const int v = co_await innerStep(sim, i);
        *sum += v;
    }
    *atEnd = g_allocCount;
}

TEST(Task, SteadyStateFramesAreRecycled)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new; nothing to count";
#endif
    Simulation sim;
    std::uint64_t atStart = 0, atEnd = 0;
    int sum = 0;
    sim.spawn(steadyLoop(sim, 64, 2000, &atStart, &atEnd, &sum));
    sim.run();
    // 2064 rounds of (i + 2).
    EXPECT_EQ(sum, 2064 * 2063 / 2 + 2 * 2064);
    EXPECT_EQ(atEnd - atStart, 0u)
        << "awaited child frames reached the global heap";
}

TEST(Simulation, RunUntilStopsAtDeadline)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(sleeper(sim, 10_us, &log));
    sim.spawn(sleeper(sim, 100_us, &log));
    sim.runUntil(50_us);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(sim.now(), 50_us);
    sim.run();
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(sim.now(), 100_us);
}

TEST(Simulation, ScheduleAndCancel)
{
    Simulation sim;
    int fired = 0;
    auto id = sim.schedule(5_us, [&] { ++fired; });
    sim.schedule(6_us, [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run();
    EXPECT_EQ(fired, 1);
}

} // namespace
