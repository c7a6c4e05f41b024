/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel itself:
 * event-queue throughput, coroutine task switching, mailbox traffic,
 * a full nIPC write and open-loop arrival generation. These guard the
 * wall-clock cost of the DES substrate (every figure bench runs
 * millions of these operations).
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "hw/computer.hh"
#include "load/generator.hh"
#include "os/kernel.hh"
#include "sim/sync.hh"

/**
 * Global allocation counter: every operator new in this binary bumps
 * it, so BM_EventQueueSteadyStateAllocs can assert the schedule→fire
 * lifecycle touches the heap zero times once warm. malloc-backed, so
 * behavior is otherwise identical to the default allocator.
 */
static std::uint64_t g_allocCount = 0;

// The replacement operators are malloc-backed on purpose; GCC's
// mismatched-new-delete heuristic cannot see that new and delete
// still pair up.
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

namespace {

using namespace molecule;
using namespace molecule::sim::literals;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            q.schedule(sim::SimTime::microseconds(i), [&] { ++sink; });
        while (!q.empty())
            q.popNext().second();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

sim::Task<>
pingPong(sim::Simulation &sim, int hops)
{
    for (int i = 0; i < hops; ++i)
        co_await sim.delay(1_us);
}

// A lone coroutine: every delay after the first (made inside spawn)
// wakes before any other event and runs ahead, so this times the
// run-ahead check and an in-place resume, not a queue round trip.
void
BM_CoroutineDelayChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        sim.spawn(pingPong(sim, 1000));
        sim.run();
        if (sim.delaysInPlace() != 999)
            state.SkipWithError("the lone chain did not run ahead");
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayChain);

// Two coroutines in lockstep: each wake-up lands on the other's older
// event at the same instant, so none runs ahead and every delay pays
// the schedule, pop and resume of a queue round trip.
void
BM_CoroutineDelayChainContended(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        sim.spawn(pingPong(sim, 500));
        sim.spawn(pingPong(sim, 500));
        sim.run();
        if (sim.delaysInPlace() != 0)
            state.SkipWithError("a contended delay ran ahead");
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayChainContended);

sim::Task<>
producer(sim::Mailbox<int> &box, int n)
{
    for (int i = 0; i < n; ++i)
        co_await box.put(i);
}

sim::Task<>
consumer(sim::Mailbox<int> &box, int n)
{
    for (int i = 0; i < n; ++i)
        (void)co_await box.get();
}

// Half the scheduled events are cancelled before they fire — the
// timeout-guard pattern (every request arms a timer, most are
// disarmed). Exercises the slab free list and stale-node skipping.
void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        std::vector<sim::EventId> armed;
        armed.reserve(500);
        for (int i = 0; i < 1000; ++i) {
            auto id = q.schedule(sim::SimTime::microseconds(i),
                                 [&] { ++sink; });
            if (i % 2 == 0)
                armed.push_back(id);
        }
        for (auto id : armed)
            q.cancel(id);
        while (!q.empty())
            q.popNext().second();
        benchmark::DoNotOptimize(sink);
    }
    // Each schedule+cancel or schedule+fire pair counts as one item.
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Timer-wheel adversary: a few far-future events pin the heap head
// while short-lived timers are continuously re-armed (scheduled then
// cancelled) behind it, so no churned timer ever reaches the head.
// The old tombstone design grew without bound here; the slab design
// must recycle and stay flat.
void
BM_EventQueueTimerResetChurn(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < 8; ++i)
            q.schedule(sim::SimTime::seconds(1000 + i), [] {});
        sim::EventId pending[32] = {};
        for (int round = 0; round < 1000; ++round) {
            const int k = round % 32;
            if (pending[k] != 0)
                q.cancel(pending[k]);
            pending[k] = q.schedule(
                sim::SimTime::milliseconds(1 + round % 97), [] {});
        }
        while (!q.empty())
            q.popNext().second();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueTimerResetChurn);

// Dense calendar-wheel exercise: thousands of pending timers spread
// pseudo-randomly over 50 ms, so inserts land across level-0 and
// level-1 buckets and draining cascades coarse windows down before
// the sorted ready-run consumes them.
void
BM_TimerWheelDense(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        for (int i = 0; i < 4096; ++i)
            q.schedule(sim::SimTime((std::int64_t(i) * 7919) %
                                    50'000'000),
                       [&] { ++sink; });
        while (!q.empty())
            q.fireNext();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TimerWheelDense);

// Batched scheduling: the keep-alive / mailbox-wake / injector path.
// One queue entry per batch instead of per event; same-instant batch
// entries keep consecutive sequence numbers.
void
BM_ScheduleBatch(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        int sink = 0;
        std::vector<sim::BatchEvent> batch;
        batch.reserve(256);
        for (int round = 0; round < 4; ++round) {
            batch.clear();
            for (int i = 0; i < 256; ++i)
                batch.push_back(sim::BatchEvent{
                    sim::SimTime::microseconds(round * 256 + i),
                    sim::InlineCallback([&] { ++sink; })});
            q.scheduleBatch(batch);
            while (!q.empty())
                q.fireNext();
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 4 * 256);
}
BENCHMARK(BM_ScheduleBatch);

// Zero-allocation assertion: after warm-up (slab grown, wheel blocks
// pooled, run buffers sized), a steady-state schedule→fire cycle
// must not touch the heap at all. The bench fails (SkipWithError) if
// even one allocation happens. Warm-up covers every alignment of the
// cycle against the 2^16 ns wheel window (the 512 us cycle span is
// not a window multiple, so peak wheel-block demand depends on the
// phase and repeats with period 16).
void
BM_EventQueueSteadyStateAllocs(benchmark::State &state)
{
    sim::EventQueue q;
    std::int64_t t = 0;
    int sink = 0;
    const auto cycle = [&](int n) {
        for (int i = 0; i < n; ++i)
            q.schedule(sim::SimTime::microseconds(t + i),
                       [&] { ++sink; });
        t += n;
        while (!q.empty())
            q.fireNext();
    };
    for (int warm = 0; warm < 18; ++warm)
        cycle(512);
    std::uint64_t events = 0;
    const std::uint64_t allocs0 = g_allocCount;
    for (auto _ : state) {
        cycle(512);
        events += 512;
    }
    const std::uint64_t allocs = g_allocCount - allocs0;
    state.counters["allocs_per_event"] =
        benchmark::Counter(double(allocs) / double(events ? events : 1));
    state.SetItemsProcessed(std::int64_t(events));
    benchmark::DoNotOptimize(sink);
    if (allocs != 0)
        state.SkipWithError(
            ("steady-state heap allocations: " +
             std::to_string(allocs) + " over " +
             std::to_string(events) + " events")
                .c_str());
}
BENCHMARK(BM_EventQueueSteadyStateAllocs);

void
BM_MailboxThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        sim::Mailbox<int> box(sim, 16);
        sim.spawn(consumer(box, 1000));
        sim.spawn(producer(box, 1000));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxThroughput);

void
BM_LocalFifoRoundTrip(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        auto computer = hw::buildDesktop(sim);
        os::LocalOs os(computer->pu(0));
        os.createFifo("bench");
        auto loop = [](os::LocalOs *o, int n) -> sim::Task<> {
            auto *f = o->findFifo("bench");
            for (int i = 0; i < n; ++i) {
                os::FifoMessage msg{64, "m"};
                co_await f->write(msg);
                (void)co_await f->read();
            }
        };
        sim.spawn(loop(&os, 100));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_LocalFifoRoundTrip);

// The cluster gateway's load source: a ~1M-arrival two-tenant stream
// per iteration (gap, tenant and function draws per arrival) under
// the arrival process named by the argument.
void
BM_OpenLoopGenerator(benchmark::State &state, load::ArrivalKind kind)
{
    load::TraceSpec spec;
    spec.seed = 42;
    spec.ratePerSecond = 100000.0;
    spec.duration = sim::SimTime::seconds(10);
    spec.arrival = kind;
    spec.functions = {"helloworld", "pyaes", "dd", "gzip-compression"};
    spec.tenants = {{"alpha", 3.0, 1.1, 1}, {"beta", 1.0, 0.8, 2}};
    load::OpenLoopGenerator gen(std::move(spec));
    load::Arrival a;
    std::int64_t arrivals = 0;
    for (auto _ : state) {
        gen.reset();
        while (gen.next(a))
            ++arrivals;
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(arrivals);
}
BENCHMARK_CAPTURE(BM_OpenLoopGenerator, poisson, load::ArrivalKind::Poisson);
BENCHMARK_CAPTURE(BM_OpenLoopGenerator, mmpp, load::ArrivalKind::Mmpp);
BENCHMARK_CAPTURE(BM_OpenLoopGenerator, diurnal, load::ArrivalKind::Diurnal);

/** The host CPU's model name, as /proc/cpuinfo gives it. */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/**
 * Console reporter that additionally captures items/sec into a
 * PerfSnapshot so every run leaves a BENCH_simcore.json next to the
 * binary's working directory.
 */
class SnapshotReporter : public benchmark::ConsoleReporter
{
  public:
    explicit SnapshotReporter(bench::PerfSnapshot *snap) : snap_(snap)
    {
    }

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const auto &run : reports) {
            if (run.run_type == Run::RT_Aggregate)
                continue; // the snapshot keeps best-of per name
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                snap_->record(run.benchmark_name(),
                              double(it->second));
        }
        ConsoleReporter::ReportRuns(reports);
    }

  private:
    bench::PerfSnapshot *snap_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Default to enough repetitions for honest spread statistics
    // (min/mean/p50/p95/p99 in the snapshot); an explicit
    // --benchmark_repetitions flag still wins.
    bool haveReps = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).find("--benchmark_repetitions") == 0)
            haveReps = true;
    std::vector<char *> args(argv, argv + argc);
    char repsFlag[] = "--benchmark_repetitions=7";
    if (!haveReps)
        args.push_back(repsFlag);
    int argn = int(args.size());
    benchmark::Initialize(&argn, args.data());
    if (benchmark::ReportUnrecognizedArguments(argn, args.data()))
        return 1;

    molecule::bench::PerfSnapshot snap("items_per_second");
    snap.machine({cpuModel(),
                  unsigned(sysconf(_SC_NPROCESSORS_ONLN)),
                  MOLECULE_BENCH_COMPILER, MOLECULE_BENCH_BUILD_TYPE});
    // Baselines document what each perf PR was judged against:
    // seed kernel (tombstone priority_queue + std::function) for the
    // first two, the pre-timer-wheel slab kernel for the rest.
    snap.baseline("BM_EventQueueScheduleRun", 7.445e6);
    snap.baseline("BM_CoroutineDelayChain", 16.647e6);
    snap.baseline("BM_EventQueueCancelHeavy", 15.884e6);
    snap.baseline("BM_EventQueueTimerResetChurn", 26.779e6);

    SnapshotReporter reporter(&snap);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!snap.writeJson("BENCH_simcore.json"))
        std::fprintf(stderr, "warning: BENCH_simcore.json not written\n");
    return 0;
}
