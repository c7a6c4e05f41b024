/** @file Unit tests for SimEvent, Semaphore, Mailbox, the Ring
 * behind them and the three record-reuse lists of sim/spares.hh. */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/spares.hh"
#include "sim/sync.hh"

namespace {

using molecule::sim::Join;
using molecule::sim::Mailbox;
using molecule::sim::Semaphore;
using molecule::sim::SemGuard;
using molecule::sim::SimEvent;
using molecule::sim::Simulation;
using molecule::sim::SimTime;
using molecule::sim::Task;
using namespace molecule::sim::literals;

Task<>
waitOn(Simulation &sim, SimEvent &ev, std::vector<SimTime> *log)
{
    co_await ev.wait();
    log->push_back(sim.now());
}

Task<>
triggerAt(Simulation &sim, SimEvent &ev, SimTime t)
{
    co_await sim.delay(t);
    ev.trigger();
}

TEST(SimEvent, WakesAllWaitersAtTriggerTime)
{
    Simulation sim;
    SimEvent ev(sim);
    std::vector<SimTime> log;
    sim.spawn(waitOn(sim, ev, &log));
    sim.spawn(waitOn(sim, ev, &log));
    sim.spawn(triggerAt(sim, ev, 25_us));
    sim.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], 25_us);
    EXPECT_EQ(log[1], 25_us);
}

TEST(SimEvent, LateWaiterPassesThrough)
{
    Simulation sim;
    SimEvent ev(sim);
    ev.trigger();
    std::vector<SimTime> log;
    sim.spawn(waitOn(sim, ev, &log));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 0_us);
}

TEST(SimEvent, ResetReArms)
{
    Simulation sim;
    SimEvent ev(sim);
    ev.trigger();
    ev.reset();
    EXPECT_FALSE(ev.triggered());
    std::vector<SimTime> log;
    sim.spawn(waitOn(sim, ev, &log));
    sim.spawn(triggerAt(sim, ev, 5_us));
    sim.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], 5_us);
}

Task<>
worker(Simulation &sim, Semaphore &cores, SimTime burst,
       std::vector<SimTime> *done)
{
    co_await cores.acquire();
    SemGuard g(cores);
    co_await sim.delay(burst);
    done->push_back(sim.now());
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation sim;
    Semaphore cores(sim, 2);
    std::vector<SimTime> done;
    for (int i = 0; i < 4; ++i)
        sim.spawn(worker(sim, cores, 10_us, &done));
    sim.run();
    // 2 cores, 4 bursts of 10us -> completions at 10,10,20,20.
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], 10_us);
    EXPECT_EQ(done[1], 10_us);
    EXPECT_EQ(done[2], 20_us);
    EXPECT_EQ(done[3], 20_us);
}

TEST(Semaphore, FifoHandoverCannotBeStolen)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    std::vector<int> order;

    auto holder = [](Simulation &s, Semaphore &m,
                     std::vector<int> *log) -> Task<> {
        co_await m.acquire();
        log->push_back(1);
        co_await s.delay(10_us);
        m.release();
    };
    auto contender = [](Simulation &s, Semaphore &m, int id, SimTime at,
                        std::vector<int> *log) -> Task<> {
        co_await s.delay(at);
        co_await m.acquire();
        log->push_back(id);
        co_await s.delay(10_us);
        m.release();
    };
    sim.spawn(holder(sim, sem, &order));
    sim.spawn(contender(sim, sem, 2, 1_us, &order));  // waits first
    sim.spawn(contender(sim, sem, 3, 10_us, &order)); // arrives at release
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<>
producer(Simulation &sim, Mailbox<int> &box, int n, SimTime gap)
{
    for (int i = 0; i < n; ++i) {
        co_await sim.delay(gap);
        co_await box.put(i);
    }
}

Task<>
consumer(Simulation &sim, Mailbox<int> &box, int n,
         std::vector<std::pair<int, SimTime>> *log)
{
    for (int i = 0; i < n; ++i) {
        int v = co_await box.get();
        log->push_back({v, sim.now()});
    }
}

TEST(Mailbox, DeliversInFifoOrder)
{
    Simulation sim;
    Mailbox<int> box(sim);
    std::vector<std::pair<int, SimTime>> log;
    sim.spawn(consumer(sim, box, 3, &log));
    sim.spawn(producer(sim, box, 3, 5_us));
    sim.run();
    ASSERT_EQ(log.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(log[std::size_t(i)].first, i);
        EXPECT_EQ(log[std::size_t(i)].second,
                  SimTime::microseconds(5 * (i + 1)));
    }
}

TEST(Mailbox, BoundedCapacityBlocksProducer)
{
    Simulation sim;
    Mailbox<int> box(sim, 1);
    std::vector<SimTime> putDone;

    auto fastProducer = [](Simulation &s, Mailbox<int> &b,
                           std::vector<SimTime> *log) -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await b.put(i);
            log->push_back(s.now());
        }
    };
    auto slowConsumer = [](Simulation &s, Mailbox<int> &b) -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await s.delay(10_us);
            (void)co_await b.get();
        }
    };
    sim.spawn(fastProducer(sim, box, &putDone));
    sim.spawn(slowConsumer(sim, box));
    sim.run();
    ASSERT_EQ(putDone.size(), 3u);
    EXPECT_EQ(putDone[0], 0_us);  // fills the single slot
    EXPECT_EQ(putDone[1], 10_us); // after first get
    EXPECT_EQ(putDone[2], 20_us); // after second get
}

TEST(Mailbox, TryPutRespectsCapacity)
{
    Simulation sim;
    Mailbox<std::string> box(sim, 2);
    EXPECT_TRUE(box.tryPut("a"));
    EXPECT_TRUE(box.tryPut("b"));
    EXPECT_FALSE(box.tryPut("c"));
    EXPECT_EQ(box.size(), 2u);
}

/** Pop one message and log it in pop order. */
Task<>
getOne(Mailbox<int> &box, std::vector<int> *popped)
{
    int v = co_await box.get();
    popped->push_back(v);
}

TEST(Mailbox, InterleavedPutsAndGetsStayFifoAcrossRingGrowth)
{
    // Bursts of puts grow the ring; waves of getters drain it and
    // block on it, so both queues wrap and regrow many times.
    Simulation sim;
    Mailbox<int> box(sim);
    std::vector<int> popped;
    std::uint64_t lcg = 12345;
    auto next = [&lcg](std::uint64_t n) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return (lcg >> 33) % n;
    };
    int put = 0;
    std::size_t getters = 0;
    for (int step = 0; step < 400; ++step) {
        if (next(2) == 0) {
            for (std::uint64_t k = next(9); k > 0; --k)
                ASSERT_TRUE(box.tryPut(put++));
        } else {
            for (std::uint64_t k = next(9); k > 0; --k) {
                sim.spawn(getOne(box, &popped));
                ++getters;
            }
        }
        if (next(3) == 0)
            sim.run();
        ASSERT_LE(popped.size(), std::size_t(put));
    }
    // Feed whoever is still blocked.
    sim.run();
    for (std::size_t k = box.waitingGetters(); k > 0; --k)
        ASSERT_TRUE(box.tryPut(put++));
    sim.run();
    ASSERT_GT(put, 64);
    ASSERT_EQ(popped.size(), getters);
    EXPECT_EQ(box.size(), std::size_t(put) - getters);
    EXPECT_EQ(box.waitingGetters(), 0u);
    for (std::size_t i = 0; i < popped.size(); ++i)
        ASSERT_EQ(popped[i], int(i)) << "pop " << i;
}

/** Log the message one blocked getter receives, tagged with its id. */
Task<>
getTagged(Mailbox<std::string> &box, int id,
          std::vector<std::pair<int, std::string>> *log)
{
    std::string v = co_await box.get();
    log->push_back({id, v});
}

TEST(Mailbox, PoisonWakesWrappedGettersInArrivalOrder)
{
    Simulation sim;
    Mailbox<std::string> box(sim);
    std::vector<std::pair<int, std::string>> log;
    // Three getters block, two are served: the getter ring's head now
    // sits mid-buffer, so the next four waiters wrap around its end.
    for (int id = 0; id < 3; ++id)
        sim.spawn(getTagged(box, id, &log));
    ASSERT_TRUE(box.tryPut("a"));
    ASSERT_TRUE(box.tryPut("b"));
    sim.run();
    for (int id = 3; id < 6; ++id)
        sim.spawn(getTagged(box, id, &log));
    ASSERT_EQ(box.waitingGetters(), 4u);

    EXPECT_EQ(box.poisonGetters("!dead"), 4u);
    EXPECT_EQ(box.waitingGetters(), 0u);
    sim.run();
    const std::vector<std::pair<int, std::string>> want = {
        {0, "a"}, {1, "b"}, {2, "!dead"},
        {3, "!dead"}, {4, "!dead"}, {5, "!dead"}};
    EXPECT_EQ(log, want);
    EXPECT_TRUE(box.empty());
    EXPECT_EQ(box.poisonGetters("!dead"), 0u);
}

Task<>
sleepFor(Simulation &sim, SimTime t)
{
    co_await sim.delay(t);
}

Task<>
noop()
{
    co_return;
}

/** Fork @p spans as children, join them, log the join time. */
Task<>
forkJoin(Simulation &sim, const std::vector<SimTime> &spans,
         std::vector<SimTime> *log)
{
    std::vector<SimTime> owned = spans;
    Join kids(sim);
    for (SimTime t : owned)
        kids.spawn(t > SimTime(0) ? sleepFor(sim, t) : noop());
    co_await kids.wait();
    log->push_back(sim.now());
}

TEST(Join, ResumesParentWhenTheLastChildEnds)
{
    Simulation sim;
    std::vector<SimTime> log;
    sim.spawn(forkJoin(sim, {30_us, 10_us, 20_us}, &log));
    // Children that never suspend are done before wait(): no event.
    sim.spawn(forkJoin(sim, {SimTime(0), SimTime(0)}, &log));
    sim.spawn(forkJoin(sim, {}, &log));
    EXPECT_EQ(log, (std::vector<SimTime>{0_us, 0_us}));
    EXPECT_EQ(sim.pendingEvents(), 3u);
    sim.run();
    EXPECT_EQ(log, (std::vector<SimTime>{0_us, 0_us, 30_us}));
}

Task<int>
answerAfter(Simulation &sim, SimTime t)
{
    co_await sim.delay(t);
    co_return 42;
}

TEST(Join, ChildrenOpenNoWrapperFrame)
{
    Simulation sim;
    std::vector<SimTime> log;
    const std::uint64_t before =
        molecule::sim::detail::FramePool::allocated();
    sim.spawn(forkJoin(sim, {30_us, 10_us, 20_us}, &log));
    sim.run();
    // The joiner and its three children: nothing else.
    EXPECT_EQ(molecule::sim::detail::FramePool::allocated() - before, 4u);

    // Valued children (their results are dropped) and a ready one.
    auto valued = [](Simulation *s, std::vector<SimTime> *out) -> Task<> {
        Join kids(*s);
        kids.spawn(answerAfter(*s, 5_us));
        kids.spawn(Task<int>::ready(7));
        kids.spawn(answerAfter(*s, 2_us));
        co_await kids.wait();
        out->push_back(s->now());
    };
    sim.spawn(valued(&sim, &log));
    sim.run();
    EXPECT_EQ(log, (std::vector<SimTime>{30_us, 35_us}));
}

/** Receive @p n messages with get()'s steps inlined in this frame. */
Task<>
receiveStepwise(Mailbox<int> &box, int n, std::vector<int> *got)
{
    for (int i = 0; i < n; ++i) {
        while (box.empty())
            co_await box.itemWait();
        got->push_back(box.take());
    }
}

Task<>
putAll(Mailbox<int> &box, const std::vector<int> &values)
{
    std::vector<int> owned = values;
    for (int v : owned)
        co_await box.put(v);
}

TEST(Mailbox, StepwiseReceiveMatchesGet)
{
    // A bounded box: take() lets a blocked putter in, as get() does.
    Simulation sim;
    Mailbox<int> box(sim, 1);
    std::vector<int> got;
    sim.spawn(receiveStepwise(box, 4, &got));
    sim.spawn(putAll(box, {1, 2, 3, 4}));
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(box.empty());
    EXPECT_EQ(box.waitingGetters(), 0u);
}

TEST(Ring, IndexAndEraseMatchADequeAcrossWraps)
{
    // Seeded mix of pushes, pops and erases at every position, so
    // both shift directions run on wrapped and unwrapped rings.
    molecule::sim::detail::Ring<int> ring;
    std::deque<int> ref;
    std::uint64_t x = 88172645463325252ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    int value = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = next() % 8;
        if (op < 4 || ref.empty()) {
            ring.push_back(value);
            ref.push_back(value++);
        } else if (op < 5) {
            ASSERT_EQ(ring.pop_front(), ref.front());
            ref.pop_front();
        } else {
            const std::size_t i = std::size_t(next() % ref.size());
            ring.erase(i);
            ref.erase(ref.begin() + std::ptrdiff_t(i));
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "step " << step;
    }
}

TEST(SpareRecords, TakesTheOldestFreeRecordAndSkipsHeldOnes)
{
    molecule::sim::SpareRecords<int> spares;
    EXPECT_EQ(*spares.take(), 0); // nothing kept: a new record
    auto held = std::make_shared<int>(1);
    auto keep = held; // an outside holder
    int *heldAt = held.get();
    auto older = std::make_shared<int>(2);
    auto newer = std::make_shared<int>(3);
    int *olderAt = older.get();
    int *newerAt = newer.get();
    spares.put(std::move(held));
    spares.put(std::move(older));
    spares.put(std::move(newer));
    // The held record stays put; the free ones come out oldest first.
    EXPECT_EQ(spares.take().get(), olderAt);
    EXPECT_EQ(spares.take().get(), newerAt);
    EXPECT_NE(spares.take().get(), heldAt);
    EXPECT_EQ(spares.size(), 1u);
    keep.reset();
    EXPECT_EQ(spares.take().get(), heldAt);
    EXPECT_EQ(spares.size(), 0u);
}

TEST(SpareRecords, RecordsHeldForGoodArePushedOutAtCapacity)
{
    using Spares = molecule::sim::SpareRecords<int>;
    Spares spares;
    std::vector<std::shared_ptr<int>> holders;
    for (std::size_t i = 0; i < 3 * Spares::kCapacity; ++i) {
        holders.push_back(std::make_shared<int>(int(i)));
        spares.put(holders.back());
        EXPECT_LE(spares.size(), Spares::kCapacity);
    }
    // Every kept record is held: take() makes a new one.
    EXPECT_EQ(spares.take().use_count(), 1);
    EXPECT_EQ(spares.size(), Spares::kCapacity);
    // Free records put after them are still reused.
    auto free = std::make_shared<int>(-1);
    int *freeAt = free.get();
    spares.put(std::move(free));
    EXPECT_EQ(spares.take().get(), freeAt);
}

/** xorshift64, the op source of the reference-model tests. */
struct OpSource
{
    std::uint64_t x = 88172645463325252ULL;

    std::uint64_t
    operator()()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

TEST(Spares, TakesTheLastPutAndNeverHandsAValueOutTwice)
{
    molecule::sim::Spares<std::unique_ptr<int>> spares;
    std::vector<int *> ref; // the list, top last
    std::vector<std::unique_ptr<int>> out;
    OpSource next;
    int made = 0;
    for (int step = 0; step < 5000; ++step) {
        const std::uint64_t op = next() % 3;
        if (op == 0) {
            out.push_back(std::make_unique<int>(made++));
        } else if (op == 1 && !out.empty()) {
            const std::size_t i = std::size_t(next() % out.size());
            ref.push_back(out[i].get());
            spares.put(std::move(out[i]));
            out.erase(out.begin() + std::ptrdiff_t(i));
        } else {
            std::unique_ptr<int> got = spares.take();
            if (ref.empty()) {
                ASSERT_EQ(got, nullptr) << "step " << step;
                continue;
            }
            ASSERT_EQ(got.get(), ref.back()) << "step " << step;
            ref.pop_back();
            for (const auto &o : out)
                ASSERT_NE(o.get(), got.get()) << "step " << step;
            out.push_back(std::move(got));
        }
        ASSERT_EQ(spares.size(), ref.size());
    }
}

TEST(Spares, MapInsertThroughSpareNodesMatchesAPlainMap)
{
    // Rows keyed by a view of their own name, as the instance table
    // is: the key is right only if it is set after the init.
    struct Row
    {
        std::string name;
        int value = 0;
    };
    using Rows = std::unordered_map<std::string_view, std::unique_ptr<Row>>;
    Rows rows;
    molecule::sim::Spares<Rows::node_type> spares;
    std::unordered_map<std::string, int> ref;
    std::size_t spareCount = 0;
    OpSource next;
    for (int step = 0; step < 20000; ++step) {
        const std::string key = "row-with-a-long-name-" +
                                std::to_string(next() % 64);
        if (next() % 2 == 0) {
            const auto [it, added] = spares.insertInto(
                rows, [&](std::unique_ptr<Row> &row) {
                    if (row == nullptr)
                        row = std::make_unique<Row>();
                    row->name = key;
                    row->value = step;
                    return std::string_view(row->name);
                });
            const bool refAdded = ref.try_emplace(key, step).second;
            ASSERT_EQ(added, refAdded) << "step " << step;
            ASSERT_EQ(it->first, key);
            ASSERT_EQ(it->first.data(), it->second->name.data());
            if (added && spareCount > 0)
                --spareCount;
        } else if (auto it = rows.find(key); it != rows.end()) {
            spares.put(rows.extract(it));
            ref.erase(key);
            ++spareCount;
        }
        ASSERT_EQ(spares.size(), spareCount) << "step " << step;
        ASSERT_EQ(rows.size(), ref.size()) << "step " << step;
        for (const auto &[name, value] : ref) {
            const auto it = rows.find(name);
            ASSERT_NE(it, rows.end()) << "step " << step;
            ASSERT_EQ(it->second->name, name);
            ASSERT_EQ(it->second->value, value) << "step " << step;
        }
    }
}

template <typename G>
concept HandsRecordsBack = requires(G g) { g.take(); };

TEST(Graveyard, KeepsBuriedRecordsReadableUntilReleased)
{
    static_assert(!HandsRecordsBack<molecule::sim::Graveyard<int>>);
    molecule::sim::Graveyard<std::string> graveyard;
    std::vector<const std::string *> buried;
    for (int i = 0; i < 3; ++i) {
        auto record = std::make_unique<std::string>(
            "a buried record too long for the inline buffer " +
            std::to_string(i));
        buried.push_back(record.get());
        graveyard.bury(std::move(record));
    }
    EXPECT_EQ(graveyard.size(), 3u);
    const std::string stranger = "not buried";
    graveyard.release(stranger);
    EXPECT_EQ(graveyard.size(), 3u);
    // Only the named record goes; the others stay readable.
    graveyard.release(*buried[1]);
    EXPECT_EQ(graveyard.size(), 2u);
    EXPECT_EQ(buried[0]->back(), '0');
    EXPECT_EQ(buried[2]->back(), '2');
    graveyard.release(*buried[0]);
    graveyard.release(*buried[2]);
    EXPECT_EQ(graveyard.size(), 0u);
}

} // namespace
