/**
 * @file
 * fleet_bench: the repository benchmark (see perfbench/README.md).
 *
 *   fleet_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 repeats one untraced run of the workload (fleet build,
 * registration, boot, warm-up window, measured window) until S wall
 * seconds have passed, at least five times, and reports the
 * end-to-end metrics: host throughput (90th percentile over the
 * repeats) and set-up time (10th percentile), peak RSS after the first
 * repeat, and the simulated latency/goodput of the stream, which every
 * repeat must reproduce exactly.
 *
 * --trace 1 repeats triples of passes over the same stream until S
 * seconds have passed: an untraced pass (the reference), a timed pass
 * (probes installed through the public seams, events fired one at a
 * time through Simulation::step) and a spans pass (a ring-bounded
 * obs::Tracer attached). Every pass must reproduce the untraced
 * pass's digests and simulated metrics exactly. It then prints the
 * per-layer ledger: calls per request x wall-ns per call for each
 * layer, and the share of the measured host ns per request that no
 * layer accounts for.
 *
 * Either mode ends with one line `RESULT {json}`; perfbench/run.py
 * turns it into the benchmark's result line.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/stats.hh"
#include "load/generator.hh"
#include "micro.hh"
#include "obs/trace.hh"
#include "probes.hh"
#include "sim/stats.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

enum class Pass : std::uint8_t { Plain, Timed, Spans };

const char *
toString(Pass p)
{
    switch (p) {
    case Pass::Plain:
        return "untraced";
    case Pass::Timed:
        return "timed";
    case Pass::Spans:
        return "spans";
    }
    return "?";
}

/** Span names whose mean sim duration the spans pass reports. */
const char *const kPhases[] = {"startup",      "comm",
                               "nipc.transfer", "sandbox.exec",
                               "sandbox.cfork", "os.dispatch",
                               "xpu.sync"};

/** Public counters summed over the fleet at one instant. */
struct Counters
{
    std::int64_t placements = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t evictions = 0;
    std::int64_t xpucalls = 0;
    std::int64_t syncMessages = 0;
    std::int64_t homedFifos = 0;
    std::int64_t liveProcesses = 0;
    std::uint64_t memUsedBytes = 0;
};

Counters
readCounters(cluster::Fleet &fleet)
{
    Counters c;
    for (int i = 0; i < fleet.size(); ++i) {
        core::Molecule &rt = fleet.node(i);
        c.placements += rt.scheduler().decisionCount();
        c.coldStarts += rt.startup().coldStarts();
        c.warmHits += rt.startup().warmHits();
        c.evictions += rt.startup().evictions();
        for (int pu : rt.deployment().generalPus()) {
            xpu::XpuShim &shim = rt.deployment().shimOn(pu);
            c.xpucalls += shim.xpucallCount();
            c.syncMessages += shim.syncMessagesSent();
            c.homedFifos += std::int64_t(shim.homedFifoCount());
            os::LocalOs &os = rt.deployment().osOn(pu);
            c.liveProcesses += std::int64_t(os.processCount());
            c.memUsedBytes += os.physicalUsed();
        }
    }
    return c;
}

/**
 * Front door of the chain workload: one Molecule::invokeChain per
 * arrival, nodes taken round-robin, scored on a ClusterStats like
 * gateway traffic (admitted on arrival, never shed or queued).
 */
class ChainFront final : public load::ArrivalSink
{
  public:
    ChainFront(cluster::Fleet &fleet, const Workload &wl,
                cluster::ClusterStats &stats)
        : fleet_(fleet), stats_(stats), plans_(chainPlans(wl, fleet.node(0)))
    {}

    void
    onArrival(const load::Arrival &a) override
    {
        stats_.onArrival(int(a.tenant));
        stats_.onAdmitted(int(a.tenant));
        stats_.onDispatched(sim::SimTime(0));
        const int node = int(cursor_++ % std::size_t(fleet_.size()));
        ++inFlight;
        fleet_.simulation().spawn(serve(a, node));
    }

    /**
     * Fill the warm pools before the stream starts: @p perNode
     * concurrent runs of every chain on every node, off the
     * scoreboard. Without it, new concurrency peaks keep cold-starting
     * a few chains inside the window, and those few decide p999.
     */
    void
    prewarm(int perNode)
    {
        for (int node = 0; node < fleet_.size(); ++node)
            for (const ChainPlan &plan : plans_)
                for (int k = 0; k < perNode; ++k)
                    fleet_.simulation().spawn(warm(plan, node));
        fleet_.simulation().run();
    }

    std::vector<LatencySample> samples;
    std::int64_t inFlight = 0;
    /** Chain-node invocations (one RuncRuntime::invoke each). */
    std::int64_t invocations = 0;

  private:
    sim::Task<>
    warm(const ChainPlan &plan, int node)
    {
        std::vector<int> placement = plan.placement;
        auto r = co_await fleet_.node(node).invokeChain(
            plan.spec, std::move(placement));
        (void)r;
    }

    sim::Task<>
    serve(load::Arrival a, int node)
    {
        const ChainPlan &plan = plans_[a.fn];
        std::vector<int> placement = plan.placement;
        auto r = co_await fleet_.node(node).invokeChain(
            plan.spec, std::move(placement));
        sim::Simulation &sim = fleet_.simulation();
        if (r.ok()) {
            for (const auto &inv : r.value().invocations)
                stats_.charge(node, inv.pu, inv.execution);
            invocations += std::int64_t(r.value().invocations.size());
            obs::InvocationRecord rec;
            rec.pu = plan.placement.front();
            stats_.onCompleted(node, rec, sim.now() - a.at,
                               int(a.tenant));
        } else {
            stats_.onError(node, std::uint8_t(r.error().code()),
                           int(a.tenant));
        }
        samples.push_back(LatencySample{a.at, sim.now() - a.at});
        --inFlight;
    }

    cluster::Fleet &fleet_;
    cluster::ClusterStats &stats_;
    std::vector<ChainPlan> plans_;
    std::size_t cursor_ = 0;
};

/** Everything one pass produces. */
struct Outcome
{
    Pass pass = Pass::Plain;
    double setupS = 0.0;
    double measuredWallS = 0.0;

    cluster::ClusterSummary summary;
    std::uint64_t statsDigest = 0;
    std::uint64_t placeDigest = 0;
    std::uint64_t evictDigest = 0;
    std::int64_t emitted = 0;
    std::int64_t samplesTotal = 0;
    bool drained = false;

    /** Completions inside the measured window. */
    std::int64_t measuredCompleted = 0;
    double measuredSimS = 0.0;
    /** Sorted sim latencies (ms) of arrivals inside the window. */
    std::vector<double> latMs;

    /** Counter deltas over the measured window, and the end state. */
    Counters window;
    Counters end;
    std::int64_t runcInvokes = 0;
    double utilHost = 0.0;
    double utilDpu = 0.0;

    /** Timed pass only. */
    std::int64_t events = 0;
    std::array<Profiler::Row, kProbeCount> rows{};
    TimedSink::Counts nested;
    std::int64_t remotePicks = 0;

    /** Spans pass only: mean sim ms per span name. */
    std::map<std::string, double> phaseMs;
};

double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    // Nearest rank: the smallest sample with at least q of all
    // samples at or below it.
    std::size_t rank = std::size_t(std::ceil(q * double(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** Linear-interpolated @p q-quantile of @p v (0.5 is the median). */
double
percentileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentileOf(std::move(v), 0.5);
}

Counters
minus(const Counters &a, const Counters &b)
{
    Counters d;
    d.placements = a.placements - b.placements;
    d.coldStarts = a.coldStarts - b.coldStarts;
    d.warmHits = a.warmHits - b.warmHits;
    d.evictions = a.evictions - b.evictions;
    d.xpucalls = a.xpucalls - b.xpucalls;
    d.syncMessages = a.syncMessages - b.syncMessages;
    return d;
}

Outcome
runPass(const Workload &wl, std::uint64_t seed, Pass pass, Profiler &prof)
{
    Outcome out;
    out.pass = pass;
    const std::int64_t setup0 = wallNs();

    sim::Simulation sim(seed);
    std::unique_ptr<obs::Tracer> tracer;
    cluster::FleetSpec spec = fleetSpec(wl);
    if (pass == Pass::Spans) {
        tracer = std::make_unique<obs::Tracer>(sim, seed, 1 << 15);
        spec.runtime.tracer = tracer.get();
    }
    cluster::Fleet fleet(sim, spec);

    Profiler *p = pass == Pass::Timed ? &prof : nullptr;
    std::vector<TimedPlacement *> placements;
    if (p != nullptr) {
        for (int i = 0; i < fleet.size(); ++i) {
            core::Molecule &rt = fleet.node(i);
            auto tp = std::make_unique<TimedPlacement>(
                wl.placement.make(), p, rt.options().managerPu);
            placements.push_back(tp.get());
            rt.scheduler().installPlacement(std::move(tp));
            rt.startup().installKeepAlive(
                std::make_unique<TimedKeepAlive>(wl.keepAlive.make(), p));
        }
    }
    registerFunctions(wl, fleet);
    fleet.start();

    obs::Registry registry;
    cluster::ClusterStats stats(registry);
    cluster::CostModel cost;
    const load::TraceSpec trace = traceSpec(wl, seed);
    load::OpenLoopGenerator gen(trace);

    RecordingDispatch dispatch(sim, p);
    std::unique_ptr<cluster::ClusterGateway> gateway;
    std::unique_ptr<ChainFront> chains;
    load::ArrivalSink *front = nullptr;
    if (wl.front == Front::Gateway) {
        stats.setCostModel(&cost, fleet.puTypeTable());
        cluster::GatewayConfig cfg =
            cluster::GatewayConfig::forFunctions(trace.functions, stats);
        cfg.admission = admission();
        cfg.dispatch = &dispatch;
        gateway = std::make_unique<cluster::ClusterGateway>(fleet, cfg);
        front = gateway.get();
    } else {
        chains = std::make_unique<ChainFront>(fleet, wl, stats);
        chains->prewarm(8);
        front = chains.get();
    }
    const std::vector<LatencySample> &samples =
        gateway ? dispatch.samples : chains->samples;
    auto invocationsSoFar = [&] {
        return gateway ? registry.counter("cluster.completed").value() +
                             registry.counter("cluster.errors").value()
                       : chains->invocations;
    };

    std::unique_ptr<TimedSink> timedSink;
    const sim::SimTime epoch = sim.now();
    if (p != nullptr) {
        timedSink = std::make_unique<TimedSink>(*front, prof, [&fleet] {
            TimedSink::Counts c;
            for (int i = 0; i < fleet.size(); ++i) {
                c.placements += fleet.node(i).scheduler().decisionCount();
                c.warmAcquires += fleet.node(i).startup().warmHits();
            }
            return c;
        });
        sim.spawn(timedDrive(sim, gen, *timedSink, prof));
    } else {
        sim.spawn(load::drive(sim, gen, *front));
    }

    const sim::SimTime warmEnd =
        epoch + sim::SimTime::fromSeconds(wl.warmupSeconds);
    sim.runUntil(warmEnd);

    const Counters atWarmEnd = readCounters(fleet);
    const std::int64_t completedAtWarmEnd =
        registry.counter("cluster.completed").value();
    const std::int64_t invocationsAtWarmEnd = invocationsSoFar();
    std::int64_t remoteAtWarmEnd = 0;
    for (const TimedPlacement *tp : placements)
        remoteAtWarmEnd += tp->remotePicks;
    if (p != nullptr) {
        prof.reset();
        timedSink->nested = {};
    }
    if (tracer)
        tracer->clear();
    out.setupS = double(wallNs() - setup0) * 1e-9;

    // The measured window: every remaining event until the fleet
    // drains.
    const std::int64_t t0 = wallNs();
    if (pass == Pass::Timed) {
        while (sim.step())
            ++out.events;
    } else {
        sim.run();
    }
    out.measuredWallS = double(wallNs() - t0) * 1e-9;

    out.summary = stats.summarize(sim.now() - epoch, fleet.coreTable());
    out.statsDigest = stats.digest();
    sim::Fingerprint placeFp;
    sim::Fingerprint evictFp;
    for (int i = 0; i < fleet.size(); ++i) {
        placeFp.mix(fleet.node(i).scheduler().placementDigest());
        evictFp.mix(fleet.node(i).startup().evictionDigest());
    }
    out.placeDigest = placeFp.digest();
    out.evictDigest = evictFp.digest();
    out.emitted = std::int64_t(gen.emitted());
    out.samplesTotal = std::int64_t(samples.size());
    out.drained = gateway ? gateway->idle() : chains->inFlight == 0;

    out.measuredCompleted = out.summary.completed - completedAtWarmEnd;
    out.measuredSimS = (sim.now() - warmEnd).toSeconds();
    for (const LatencySample &s : samples)
        if (s.arrival >= warmEnd)
            out.latMs.push_back(s.latency.toMilliseconds());
    std::sort(out.latMs.begin(), out.latMs.end());

    out.end = readCounters(fleet);
    out.window = minus(out.end, atWarmEnd);
    out.runcInvokes = invocationsSoFar() - invocationsAtWarmEnd;

    const auto types = fleet.puTypeTable();
    double hostSum = 0.0, dpuSum = 0.0;
    int hostN = 0, dpuN = 0;
    for (const cluster::PuUtilization &u : out.summary.utilization) {
        const auto it = types.find({u.node, u.pu});
        if (it == types.end())
            continue;
        if (it->second == hw::PuType::Dpu) {
            dpuSum += u.utilization;
            ++dpuN;
        } else if (it->second == hw::PuType::HostCpu) {
            hostSum += u.utilization;
            ++hostN;
        }
    }
    out.utilHost = hostN ? hostSum / hostN : 0.0;
    out.utilDpu = dpuN ? dpuSum / dpuN : 0.0;

    if (p != nullptr) {
        for (int i = 0; i < kProbeCount; ++i)
            out.rows[std::size_t(i)] = prof.row(Probe(i));
        out.nested = timedSink->nested;
        for (const TimedPlacement *tp : placements)
            out.remotePicks += tp->remotePicks;
        out.remotePicks -= remoteAtWarmEnd;
    }
    if (tracer) {
        const auto &hists = tracer->metrics().histograms();
        for (const char *name : kPhases) {
            const auto it = hists.find(std::string_view(name));
            out.phaseMs[name] =
                it != hists.end() ? it->second.mean() / 1000.0 : 0.0;
        }
    }
    return out;
}

/** The simulated results every pass of one stream must agree on. */
struct SimResults
{
    std::uint64_t statsDigest, placeDigest, evictDigest;
    std::int64_t arrivals, completed, measuredCompleted;
    double p50, p99, p999, goodput, servedFrac;

    bool operator==(const SimResults &) const = default;
};

double
servedFrac(const Outcome &o)
{
    const auto &s = o.summary;
    return s.arrivals > 0 ? double(s.completed) / double(s.arrivals) : 0.0;
}

double
failedFrac(const Outcome &o)
{
    const auto &s = o.summary;
    return s.arrivals > 0
               ? double(s.shed + s.dropped + s.errors) / double(s.arrivals)
               : 0.0;
}

SimResults
simResults(const Outcome &o)
{
    return SimResults{o.statsDigest,
                      o.placeDigest,
                      o.evictDigest,
                      o.summary.arrivals,
                      o.summary.completed,
                      o.measuredCompleted,
                      quantile(o.latMs, 0.50),
                      quantile(o.latMs, 0.99),
                      quantile(o.latMs, 0.999),
                      o.measuredSimS > 0.0
                          ? double(o.measuredCompleted) / o.measuredSimS
                          : 0.0,
                      servedFrac(o)};
}

/** Correctness checks of one pass; appends one line per violation. */
void
checkOutcome(const Outcome &o, std::vector<std::string> &violations)
{
    const cluster::ClusterSummary &s = o.summary;
    auto fail = [&](const std::string &what) {
        violations.push_back(std::string(toString(o.pass)) + ": " + what);
    };
    if (s.arrivals != s.admitted + s.shed + s.dropped)
        fail("arrivals != admitted + shed + dropped");
    if (s.admitted != s.completed + s.errors)
        fail("admitted != completed + errors");
    if (o.emitted != s.arrivals)
        fail("generator emitted " + std::to_string(o.emitted) +
             " arrivals, the front door saw " + std::to_string(s.arrivals));
    if (o.samplesTotal != s.completed + s.errors)
        fail("completion samples != completed + errors");
    if (!o.drained)
        fail("work still queued or in flight after the run");
    if (o.measuredCompleted <= 0 || o.latMs.empty())
        fail("nothing completed in the measured window");
    if (!o.latMs.empty() && o.latMs.front() <= 0.0)
        fail("non-positive simulated latency");
}

void
compareSim(const Outcome &ref, const Outcome &o, const char *what,
           std::vector<std::string> &violations)
{
    if (!(simResults(ref) == simResults(o)))
        violations.push_back(std::string(what) +
                             ": digests or simulated metrics differ from "
                             "the reference untraced run");
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

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

/** High-water RSS of this process image. getrusage's ru_maxrss would
 * inherit the launching process's peak across exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::int64_t attempted, std::int64_t failed,
            const std::vector<Metric> &metrics,
            const std::vector<std::string> &violations)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
        json += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + buf +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}, \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        json += (i ? ", " : "") + jsonString(violations[i]);
    json += "], \"machine\": {\"cpu\": " + jsonString(cpuModel()) +
            ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
            ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) + "}}";
    std::printf("RESULT %s\n", json.c_str());
}

void
printDigests(const Outcome &o)
{
    std::printf("  %-9s digests stats=%s place=%s evict=%s\n",
                toString(o.pass), hex(o.statsDigest).c_str(),
                hex(o.placeDigest).c_str(), hex(o.evictDigest).c_str());
}

void
printSim(const Outcome &o)
{
    const SimResults r = simResults(o);
    const auto &s = o.summary;
    std::printf("  sim: arrivals=%lld admitted=%lld shed=%lld dropped=%lld "
                "completed=%lld errors=%lld failed_frac=%.6f\n",
                (long long)s.arrivals, (long long)s.admitted,
                (long long)s.shed, (long long)s.dropped,
                (long long)s.completed, (long long)s.errors, failedFrac(o));
    std::printf("  sim window: %lld completions over %.1f s, p50=%.3f "
                "p99=%.3f p999=%.3f ms (%zu samples), goodput=%.2f/s\n",
                (long long)o.measuredCompleted, o.measuredSimS, r.p50,
                r.p99, r.p999, o.latMs.size(), r.goodput);
}

double
hostReqPerS(const Outcome &o)
{
    return double(o.measuredCompleted) / o.measuredWallS;
}

/** --trace 0: end-to-end metrics over repeated untraced runs. */
int
endToEnd(const Workload &wl, std::uint64_t seed, double seconds)
{
    Profiler prof;
    const std::int64_t deadline = wallNs() + std::int64_t(seconds * 1e9);
    std::vector<Outcome> reps;
    std::vector<std::string> violations;
    double rssMb = 0.0;
    std::printf("untraced repeats:\n");
    do {
        reps.push_back(runPass(wl, seed, Pass::Plain, prof));
        if (reps.size() == 1)
            rssMb = peakRssMb();
        const Outcome &o = reps.back();
        checkOutcome(o, violations);
        if (reps.size() > 1)
            compareSim(reps.front(), o, "repeat", violations);
        std::printf("  rep %zu: setup %.4f s, window %.4f s wall, "
                    "%.0f req/s\n",
                    reps.size(), o.setupS, o.measuredWallS, hostReqPerS(o));
    } while (reps.size() < 5 || wallNs() < deadline);

    const Outcome &ref = reps.front();
    printDigests(ref);
    printSim(ref);

    std::vector<double> rates, setups;
    std::int64_t attempted = 0, failedReqs = 0;
    for (const Outcome &o : reps) {
        rates.push_back(hostReqPerS(o));
        setups.push_back(o.setupS);
        attempted += o.summary.arrivals;
        failedReqs += o.summary.shed + o.summary.dropped + o.summary.errors;
    }
    // Contention from other tenants of a shared host only ever slows a
    // repeat, in phases lasting seconds; the fast end of the repeats is
    // the steady estimate of what the code costs.
    const SimResults r = simResults(ref);
    const std::vector<Metric> metrics = {
        {"host_req_per_s", percentileOf(rates, 0.9), "1/s"},
        {"setup_s", percentileOf(setups, 0.1), "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"sim_p50_ms", r.p50, "ms"},
        {"sim_p99_ms", r.p99, "ms"},
        {"sim_p999_ms", r.p999, "ms"},
        {"sim_goodput_rps", r.goodput, "1/s"},
        {"served_frac", r.servedFrac, "fraction"},
    };
    for (const std::string &v : violations)
        std::printf("VIOLATION %s\n", v.c_str());
    printResult(violations.empty(), attempted,
                failedReqs + std::int64_t(violations.size()), metrics,
                violations);
    return 0;
}

/** One row of the per-layer ledger. */
struct LedgerRow
{
    const char *name;
    double callsPerReq;
    double nsPerCall;

    double nsPerReq() const { return callsPerReq * nsPerCall; }
};

/** Metrics of one (untraced, timed, spans) triple plus micros. */
struct LayerSample
{
    std::map<std::string, double> values;
    std::vector<LedgerRow> ledger;
    double hostNsPerReq = 0.0;
};

LayerSample
layerSample(const Outcome &u, const Outcome &t, const Outcome &s,
            const MicroCosts &m)
{
    LayerSample out;
    auto &v = out.values;
    const double req = double(u.measuredCompleted);
    auto perReq = [req](double x) { return req > 0 ? x / req : 0.0; };
    // Probe self time below the clock's resolution can come out a
    // hair negative after the clock-cost correction; it is zero.
    auto perCall = [](const Profiler::Row &r, bool self) {
        return r.calls ? std::max(0.0, (self ? r.selfNs : r.inclNs) /
                                           double(r.calls))
                       : 0.0;
    };
    // Per-call cost of a seam: probed when the workload reaches it,
    // else a direct call (the calls/req metric tells which).
    auto seamNs = [&](const Profiler::Row &r, double direct) {
        return r.calls ? perCall(r, true) : direct;
    };
    const auto &rows = t.rows;
    const Profiler::Row &gen = rows[kGenNext];
    const Profiler::Row &arrival = rows[kArrival];
    const Profiler::Row &pick = rows[kDispatchPick];
    const Profiler::Row &place = rows[kPolicyPlace];
    const Profiler::Row &score = rows[kKeepScore];
    const Profiler::Row &keepOther = rows[kKeepOther];

    out.hostNsPerReq = u.measuredWallS * 1e9 / req;
    v["sim.events_per_req"] = perReq(double(t.events));
    v["sim.host_ns_per_event"] =
        t.events ? u.measuredWallS * 1e9 / double(t.events) : 0.0;
    v["sim.schedule_fire_ns"] = m.scheduleFireNs;
    v["load.gen_ns_per_arrival"] = perCall(gen, true);
    v["cluster.on_arrival_ns"] = perCall(arrival, false);
    v["cluster.dispatch_pick_ns"] = seamNs(pick, m.dispatchPickNs);
    v["cluster.stats_on_completed_ns"] = m.statsOnCompletedNs;
    v["cluster.queue_wait_p99_ms"] = u.summary.queueWaitP99Us / 1000.0;
    v["cluster.queue_max_depth"] = double(u.summary.queueMaxDepth);
    v["core.sched_place_ns"] = m.schedPlaceNs;
    v["core.policy_place_ns"] = seamNs(place, m.policyPlaceNs);
    v["core.placements_per_req"] = perReq(double(u.window.placements));
    v["core.warm_acquire_release_ns"] = m.warmAcquireReleaseNs;
    const double acquires = double(u.window.coldStarts + u.window.warmHits);
    v["core.cold_start_frac"] =
        acquires > 0 ? double(u.window.coldStarts) / acquires : 0.0;
    v["core.evictions_per_req"] = perReq(double(u.window.evictions));
    v["core.keepalive_score_calls_per_req"] = perReq(double(score.calls));
    v["core.keepalive_score_ns"] = seamNs(score, m.keepAliveScoreNs);
    v["xpu.calls_per_req"] = perReq(double(u.window.xpucalls));
    v["xpu.sync_msgs_per_req"] = perReq(double(u.window.syncMessages));
    v["xpu.transfer_ns"] = m.transferNs;
    v["xpu.xpucall_ns"] = m.xpucallNs;
    v["xpu.homed_fifos_end"] = double(u.end.homedFifos);
    v["os.live_processes_end"] = double(u.end.liveProcesses);
    v["os.sim_mem_used_gb_end"] = double(u.end.memUsedBytes) / 1e9;
    v["sandbox.runc_invoke_ns"] = m.runcInvokeNs;
    v["sandbox.cold_acquire_ns"] = m.coldAcquireNs;
    v["hw.util_host"] = u.utilHost;
    v["hw.util_dpu"] = u.utilDpu;
    v["obs.histogram_add_ns"] = m.histogramAddNs;
    v["obs.tracer_push_ns"] = m.tracerPushNs;
    for (const auto &[name, ms] : s.phaseMs)
        v["obs.sim_phase_ms." + name] = ms;
    v["obs.trace_overhead_frac"] = s.measuredWallS / u.measuredWallS - 1.0;

    // The ledger. Probe rows are self time measured in the timed pass;
    // the rest are counted calls x micro ns/call. The front door's
    // frame also contains placements and warm acquires started inside
    // onArrival (dispatch straight to a free node); their estimated
    // cost moves to the rows that own them.
    const double viewNs =
        std::max(0.0, m.schedPlaceNs - seamNs(place, m.policyPlaceNs));
    const double frontNs =
        arrival.selfNs - double(t.nested.placements) * viewNs -
        double(t.nested.warmAcquires) * m.warmAcquireNs;
    auto row = [&](const char *name, double calls, double nsPerCall) {
        out.ledger.push_back(LedgerRow{name, perReq(calls), nsPerCall});
    };
    auto probeRow = [&](const char *name, const Profiler::Row &r) {
        out.ledger.push_back(
            LedgerRow{name, perReq(double(r.calls)), perCall(r, true)});
    };
    row("sim.kernel", double(t.events), m.scheduleFireNs);
    probeRow("load.generator", gen);
    row("cluster.front_door", double(arrival.calls),
        arrival.calls ? frontNs / double(arrival.calls) : 0.0);
    probeRow("cluster.dispatch", pick);
    row("cluster.stats", double(u.measuredCompleted), m.statsOnCompletedNs);
    row("core.scheduler_view", double(u.window.placements), viewNs);
    probeRow("core.placement_policy", place);
    row("core.startup_warm", double(u.window.warmHits),
        m.warmAcquireReleaseNs);
    Profiler::Row keep;
    keep.calls = score.calls + keepOther.calls;
    keep.selfNs = score.selfNs + keepOther.selfNs;
    probeRow("core.keepalive", keep);
    row("sandbox.cold_start", double(u.window.coldStarts), m.coldAcquireNs);
    row("sandbox.runc_invoke", double(u.runcInvokes), m.runcInvokeNs);
    row("xpu.transfer", double(t.remotePicks), m.transferNs);
    row("xpu.xpucall", double(u.window.xpucalls), m.xpucallNs);
    double named = 0.0;
    for (const LedgerRow &r : out.ledger)
        named += r.nsPerReq();
    out.ledger.push_back(
        LedgerRow{"unattributed", 1.0, out.hostNsPerReq - named});

    for (const LedgerRow &r : out.ledger) {
        std::string key = r.name;
        std::replace(key.begin(), key.end(), '.', '_');
        v["ledger." + key + "_ns_per_req"] = r.nsPerReq();
    }
    v["ledger.host_ns_per_req"] = out.hostNsPerReq;
    v["ledger.unattributed_frac"] =
        out.ledger.back().nsPerReq() / out.hostNsPerReq;
    return out;
}

const char *
unitOf(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_ns") || ends("_ns_per_req") || ends("_ns_per_event") ||
        ends("_ns_per_arrival"))
        return "ns";
    if (ends("_ms") || name.rfind("obs.sim_phase_ms.", 0) == 0)
        return "ms";
    if (ends("_gb_end"))
        return "GB";
    if (ends("_frac") || name.rfind("hw.util_", 0) == 0)
        return "fraction";
    return "count";
}

/** --trace 1: per-layer metrics and the ledger. */
int
perLayer(const Workload &wl, std::uint64_t seed, double seconds)
{
    Profiler prof;
    const std::int64_t deadline = wallNs() + std::int64_t(seconds * 1e9);
    std::vector<std::string> violations;
    std::vector<LayerSample> samples;
    std::int64_t attempted = 0, failedReqs = 0;
    Outcome reference;
    std::printf("passes (untraced, timed, spans) per iteration:\n");
    do {
        Outcome u = runPass(wl, seed, Pass::Plain, prof);
        Outcome t = runPass(wl, seed, Pass::Timed, prof);
        Outcome s = runPass(wl, seed, Pass::Spans, prof);
        for (const Outcome *o : {&u, &t, &s}) {
            checkOutcome(*o, violations);
            attempted += o->summary.arrivals;
            failedReqs +=
                o->summary.shed + o->summary.dropped + o->summary.errors;
        }
        if (samples.empty())
            reference = u;
        else
            compareSim(reference, u, "repeat", violations);
        compareSim(reference, t, "timed pass (step loop)", violations);
        compareSim(reference, s, "spans pass", violations);
        const MicroCosts m = measureMicros(wl, seed);
        samples.push_back(layerSample(u, t, s, m));
        std::printf("  iter %zu: untraced %.4f s, timed %.4f s, spans "
                    "%.4f s wall\n",
                    samples.size(), u.measuredWallS, t.measuredWallS,
                    s.measuredWallS);
        if (samples.size() == 1) {
            printDigests(u);
            printDigests(t);
            printDigests(s);
            printSim(u);
        }
    } while (wallNs() < deadline);

    // Medians over iterations, metric by metric and row by row.
    std::map<std::string, std::vector<double>> byName;
    for (const LayerSample &ls : samples)
        for (const auto &[name, value] : ls.values)
            byName[name].push_back(value);
    std::vector<double> hostNs;
    for (const LayerSample &ls : samples)
        hostNs.push_back(ls.hostNsPerReq);
    const double host = median(hostNs);

    std::printf("\nper-layer ledger, %s (medians of %zu iterations; "
                "host ns/req measured untraced = %.1f)\n",
                wl.name, samples.size(), host);
    std::printf("  %-24s %12s %12s %14s %8s\n", "layer", "calls/req",
                "ns/call", "host ns/req", "share");
    const std::vector<LedgerRow> &first = samples.front().ledger;
    double shareSum = 0.0;
    for (std::size_t i = 0; i < first.size(); ++i) {
        std::vector<double> calls, ns, total;
        for (const LayerSample &ls : samples) {
            calls.push_back(ls.ledger[i].callsPerReq);
            ns.push_back(ls.ledger[i].nsPerCall);
            total.push_back(ls.ledger[i].nsPerReq());
        }
        const double rowNs = median(total);
        shareSum += rowNs / host;
        std::printf("  %-24s %12.4f %12.1f %14.1f %7.1f%%\n",
                    first[i].name, median(calls), median(ns), rowNs,
                    100.0 * rowNs / host);
    }
    std::printf("  %-24s %12s %12s %14.1f %7.1f%%\n", "total", "", "",
                host, 100.0 * shareSum);

    std::vector<Metric> metrics;
    for (const auto &[name, values] : byName)
        metrics.push_back(Metric{name, median(values), unitOf(name)});
    for (const std::string &v : violations)
        std::printf("VIOLATION %s\n", v.c_str());
    printResult(violations.empty(), attempted,
                failedReqs + std::int64_t(violations.size()), metrics,
                violations);
    return 0;
}

int
usage()
{
    std::string names;
    for (const std::string &n : workloadNames())
        names += (names.empty() ? "" : "|") + n;
    std::fprintf(stderr,
                 "usage: fleet_bench --workload %s --seed N "
                 "--seconds S --trace 0|1\n",
                 names.c_str());
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else
            return usage();
    }
    const Workload *wl = findWorkload(workload);
    if (argc % 2 == 0 || wl == nullptr || seconds <= 0.0 ||
        (trace != 0 && trace != 1))
        return usage();
    std::printf("fleet_bench workload=%s seed=%llu seconds=%g trace=%d\n",
                wl->name, (unsigned long long)seed, seconds, trace);
    std::fflush(stdout);
    return trace == 0 ? endToEnd(*wl, seed, seconds)
                      : perLayer(*wl, seed, seconds);
}
