/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernel itself:
 * event-queue throughput, coroutine task switching, mailbox traffic,
 * a full nIPC write, capability-replica churn and open-loop arrival
 * generation. These guard the wall-clock cost of the DES substrate
 * (every figure bench runs millions of these operations).
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <coroutine>
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
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "xpu/capability.hh"

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

// Schedule 1000 callbacks, then fire them: each is a callback frame
// (Simulation::schedule) queued as a handle and resumed by the drain.
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(sim::SimTime::microseconds(i), [&] { ++sink; });
        sim.run();
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
// wakes before any other event and runs ahead, except one in each
// kMaxRunAheadStreak + 1, which ends the streak and is queued. So
// this times the run-ahead check and an in-place resume, not a queue
// round trip.
void
BM_CoroutineDelayChain(benchmark::State &state)
{
    constexpr std::uint64_t inPlace =
        999 - 999 / (sim::Simulation::kMaxRunAheadStreak + 1);
    for (auto _ : state) {
        sim::Simulation sim;
        sim.spawn(pingPong(sim, 1000));
        sim.run();
        if (sim.delaysInPlace() != inPlace)
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

// The warm_saturated regime at the queue itself: a steady 40 pending
// events whose delays mix microseconds (one in four: 1-101 us, the
// exec and hop steps) with milliseconds (1-21 ms, service times and
// timeouts). Each iteration pops the earliest event and schedules its
// successor without resuming anything, so this times one schedule and
// one pop at that depth.
void
BM_EventQueueNearMixed(benchmark::State &state)
{
    sim::EventQueue q;
    const std::coroutine_handle<> h = std::noop_coroutine();
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto delay = [&rng] {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = rng >> 33;
        return sim::SimTime(std::int64_t(
            r % 4 == 0 ? 1'000 + r % 100'000 : 1'000'000 + r % 20'000'000));
    };
    for (int i = 0; i < 40; ++i)
        q.schedule(delay(), h);
    for (auto _ : state) {
        const auto [now, next] = q.popNext();
        q.schedule(now + delay(), next);
    }
    if (q.size() != 40)
        state.SkipWithError("the pending count drifted");
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_EventQueueNearMixed);

sim::Task<>
consumer(sim::Mailbox<int> &box, int n)
{
    for (int i = 0; i < n; ++i)
        (void)co_await box.get();
}

// Dense calendar-wheel exercise: thousands of pending timers spread
// pseudo-randomly over 50 ms, so inserts land across level-0 and
// level-1 buckets and draining cascades coarse windows down before
// the sorted ready-run consumes them.
void
BM_TimerWheelDense(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulation sim;
        int sink = 0;
        for (int i = 0; i < 4096; ++i)
            sim.schedule(sim::SimTime((std::int64_t(i) * 7919) %
                                      50'000'000),
                         [&] { ++sink; });
        sim.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TimerWheelDense);

// Zero-allocation assertion: after warm-up (callback frames pooled,
// wheel blocks pooled, run buffers sized), a steady-state
// schedule→fire cycle must not touch the heap at all. The bench fails (SkipWithError) if
// even one allocation happens. Warm-up covers every alignment of the
// cycle against the 2^16 ns wheel window (the 512 us cycle span is
// not a window multiple, so peak wheel-block demand depends on the
// phase and repeats with period 16).
void
BM_EventQueueSteadyStateAllocs(benchmark::State &state)
{
    sim::Simulation sim;
    std::int64_t t = 0;
    int sink = 0;
    const auto cycle = [&](int n) {
        for (int i = 0; i < n; ++i)
            sim.schedule(sim::SimTime::microseconds(t + i) - sim.now(),
                         [&] { ++sink; });
        t += n;
        sim.run();
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
        sim::Mailbox<int> box(sim);
        sim.spawn(consumer(box, 1000));
        for (int i = 0; i < 1000; ++i)
            box.put(i);
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

// The replica work behind every nIPC fifo on one XPU-Shim: register
// its descriptor with the owner's grant (one RegisterObject apply),
// resolve the uuid by its stored hash, check a permission and remove
// it, with 32 other objects live (chain_nipc's replicas hold about 20
// to 40). One item is one such cycle.
void
BM_CapabilityReplicaChurn(benchmark::State &state)
{
    constexpr std::size_t kLive = 32;
    constexpr std::size_t kPool = 2 * kLive;
    xpu::CapabilityStore store(0);
    std::vector<xpu::ObjectRef> pool;
    for (std::size_t i = 0; i < kPool; ++i) {
        xpu::DistributedObject obj;
        obj.id = store.allocateId();
        obj.owner = xpu::XpuPid{0, os::Pid(100 + i)};
        obj.homePu = 0;
        // The setter xfifoInit uses: it hashes the uuid once.
        obj.uuid = "self/alexa/" + std::to_string(1000 + i);
        pool.push_back(std::make_shared<const xpu::DistributedObject>(obj));
    }
    const xpu::Perm owner =
        xpu::Perm::Read | xpu::Perm::Write | xpu::Perm::Owner;
    auto open = [&](const xpu::ObjectRef &obj) {
        store.registerObject(obj, owner);
    };
    for (std::size_t i = 0; i < kLive; ++i)
        open(pool[i]);
    std::size_t next = kLive;
    std::int64_t granted = 0;
    for (auto _ : state) {
        const xpu::ObjectRef &obj = pool[next % kPool];
        open(obj);
        const xpu::DistributedObject *found = store.findByUuid(obj->uuid);
        granted += store.check(obj->owner, found->id, xpu::Perm::Write);
        store.removeObject(pool[(next - kLive) % kPool]->id);
        ++next;
    }
    benchmark::DoNotOptimize(granted);
    if (granted != std::int64_t(state.iterations()))
        state.SkipWithError("owner grant not visible to check()");
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_CapabilityReplicaChurn);

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
    // first two and the std::unordered_map replica tables for the
    // churn row.
    snap.baseline("BM_EventQueueScheduleRun", 7.445e6);
    snap.baseline("BM_CoroutineDelayChain", 16.647e6);
    snap.baseline("BM_CapabilityReplicaChurn", 4.883e6);

    SnapshotReporter reporter(&snap);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!snap.writeJson("BENCH_simcore.json"))
        std::fprintf(stderr, "warning: BENCH_simcore.json not written\n");
    return 0;
}
