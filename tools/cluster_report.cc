/**
 * @file
 * cluster_report: the cluster scenarios on the cluster::Scenario
 * harness, one subcommand each.
 *
 *   cluster_report ladder [--check] [--json PATH] [--seed N]...
 *   cluster_report policy [--check] [--json PATH] [--seed N]...
 *   cluster_report slo [--check] [--chaos] [--dump PATH]
 *       [--timeline PATH] [--openmetrics PATH] [--seed N]...
 *
 * Every scenario streams the same seeded, Zipf-skewed two-tenant mix
 * over four catalog functions (seeds 42, 7 and 1 unless --seed is
 * given). Under --check every run must conserve arrivals (arrivals =
 * admitted + shed + dropped, admitted = completed + errors), complete
 * something and report sane percentiles, plus each scenario's own
 * invariants:
 *
 * ladder: a 4-node CPU+DPU fleet behind a token bucket at 300/s,
 * raced from half the admitted rate to well past it. One table shows
 * drop-free service below saturation, then the bucket shedding load
 * while the served fraction keeps bounded tails.
 *   - generator stream digests are bit-identical serial vs
 *     SweepRunner for every arrival process (Poisson, MMPP, diurnal);
 *   - below-saturation rungs shed, drop and fail nothing;
 *   - the top rung generates >= 1M arrivals and provably sheds;
 *   - per-PU utilization is reported and nonzero.
 *
 * policy: placement x keep-alive combos replay identical streams on
 * the 4-node 2xBF2 fleet behind an open gateway (node capacity binds)
 * with the $-cost model attached, so throughput, tail and dollar
 * differences are the policies' alone. A table per seed marks the
 * latency/cost Pareto frontier at the saturated rung.
 *   - every completion is costed;
 *   - installing the default policies explicitly leaves the digests
 *     of a fleet that never touched the policy knobs unchanged;
 *   - load-aware placement raises the saturated service rate and
 *     cuts p99 against the price-ordered default (its DPU-bound
 *     ceiling is the bug load-aware placement exists to fix);
 *   - per-combo digests are bit-identical serial vs re-run vs
 *     SweepRunner;
 *   - the Pareto frontier is non-empty and sorted by p99.
 *
 * slo: an under-provisioned 2-node fleet behind an unpoliced gateway,
 * fed well above capacity with the telemetry plane attached, so the
 * backlog grows and the burn-rate alerts fire at sim-time instants
 * that must reproduce exactly.
 *   - the (stats, window, alert) digests are bit-identical serial vs
 *     re-run vs SweepRunner;
 *   - window sums conserve: per-tenant completed/errors and the
 *     watched cluster.* counters summed over closed windows equal the
 *     run totals;
 *   - >= 30 windows close and a latency alert fires;
 *   - attaching telemetry does not move the stats digest;
 *   - --chaos (PU 1 of every node crashes at 10 s for 5 s) leaves a
 *     flight-recorder dump.
 *
 * --json PATH writes the ladder or policy rows as a JSON artifact.
 * --timeline PATH and --openmetrics PATH write the first seed's
 * JSON-lines windows and OpenMetrics text; --dump PATH writes its
 * newest flight-recorder bundle.
 */

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cost.hh"
#include "cluster/scenario.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics_export.hh"
#include "obs/timeseries.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"

namespace {

using namespace molecule;
using sim::SimTime;

constexpr std::uint64_t kSeeds[] = {42, 7, 1};

struct Options
{
    bool check = false;
    bool chaos = false;
    std::string json;
    std::string dump;
    std::string timeline;
    std::string openMetrics;
    std::vector<std::uint64_t> seeds;
};

/** Load rungs as multiples of a scenario's reference rate. */
struct Rung
{
    const char *label;
    double factor;
    bool saturated;
};

std::string
strf(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
strf(const char *format, ...)
{
    char buf[768];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    return strf("%016llx", (unsigned long long)v);
}

std::string
fmt(double v, int precision = 1)
{
    return sim::Table::num(v, precision);
}

/** The stream every scenario replays: four functions, two tenants. */
load::TraceSpec
stream(std::uint64_t seed, double rate, SimTime duration,
       load::ArrivalKind arrival = load::ArrivalKind::Poisson)
{
    load::TraceSpec spec;
    spec.seed = seed;
    spec.ratePerSecond = rate;
    spec.arrival = arrival;
    spec.duration = duration;
    spec.functions = {"helloworld", "pyaes", "dd", "gzip-compression"};
    spec.tenants = {
        {"alpha", 3.0, 1.1, 1},
        {"beta", 1.0, 0.8, 2},
    };
    return spec;
}

/** The 4-node 2xBF2 fleet the ladder and the policy race share. */
cluster::ScenarioSpec
fourNodes(load::TraceSpec trace)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 4;
    spec.fleet.dpusPerNode = 2;
    spec.trace = std::move(trace);
    spec.admission.queueCapacity = 2048;
    spec.admission.maxOutstandingPerNode = 96;
    spec.admission.invoke.maxAttempts = 2;
    return spec;
}

/** Collects --check failures, each reported on stderr. */
class Checker
{
  public:
    void
    expect(bool ok, std::uint64_t seed, const std::string &what)
    {
        if (ok)
            return;
        std::fprintf(stderr, "FAIL: seed %llu: %s\n",
                     (unsigned long long)seed, what.c_str());
        pass_ = false;
    }

    /** The accounting every scenario's runs must keep. */
    void
    conserves(std::uint64_t seed, const std::string &run,
              const cluster::ClusterSummary &s)
    {
        expect(s.arrivals == s.admitted + s.shed + s.dropped, seed,
               run + ": arrivals != admitted + shed + dropped");
        expect(s.admitted == s.completed + s.errors, seed,
               run + ": admitted != completed + errors");
        expect(s.completed > 0, seed, run + ": nothing completed");
        expect(s.p50Us > 0.0 && s.p50Us <= s.p99Us &&
                   s.p99Us <= s.p999Us,
               seed, run + ": percentiles not sane");
    }

    /** Print the --check verdict; the exit code. */
    int
    verdict(bool check, const char *ok, const char *failed) const
    {
        if (!check)
            return 0;
        std::printf("%s\n", pass_ ? ok : failed);
        return pass_ ? 0 : 1;
    }

  private:
    bool pass_ = true;
};

/** {"scenario": ..., "rows": [...]}, one preformatted object a row. */
void
writeJson(const std::string &path, const char *scenario,
          const std::vector<std::string> &rows)
{
    std::ofstream out(path);
    out << "{\n  \"scenario\": \"" << scenario << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        out << "    " << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
    std::printf("\njson -> %s\n", path.c_str());
}

// ---------------------------------------------------------------------
// ladder
// ---------------------------------------------------------------------

/** The admitted rate the token bucket polices (invocations/s). */
constexpr double kAdmittedPerSecond = 300.0;

constexpr Rung kLadder[] = {
    {"0.5x", 0.5, false},
    {"0.8x", 0.8, false},
    {"1.6x", 1.6, true},
};

/** Arrivals the top rung must generate (acceptance floor). */
constexpr std::uint64_t kTopRungArrivals = 1'050'000;

/** Every rung shares the horizon that clears the top rung's floor,
 * so throughput columns are comparable. */
load::TraceSpec
ladderStream(std::uint64_t seed, double rate, load::ArrivalKind kind)
{
    const double topRate =
        kAdmittedPerSecond * kLadder[std::size(kLadder) - 1].factor;
    return stream(seed, rate,
                  SimTime::fromSeconds(double(kTopRungArrivals) / topRate),
                  kind);
}

double
meanUtilization(const cluster::ClusterSummary &s)
{
    if (s.utilization.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &u : s.utilization)
        total += u.utilization;
    return total / double(s.utilization.size());
}

/** Stream digests of every arrival process, serial vs SweepRunner. */
bool
checkGeneratorDigests(std::uint64_t seed, sim::Table &table)
{
    const double topRate =
        kAdmittedPerSecond * kLadder[std::size(kLadder) - 1].factor;
    std::vector<load::TraceSpec> specs;
    for (load::ArrivalKind kind :
         {load::ArrivalKind::Poisson, load::ArrivalKind::Mmpp,
          load::ArrivalKind::Diurnal})
        specs.push_back(ladderStream(seed, topRate, kind));

    sim::SweepRunner pool;
    const auto threaded = pool.map<std::uint64_t>(
        specs.size(),
        [&](std::size_t i) { return load::streamDigest(specs[i]); });

    bool ok = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t serial = load::streamDigest(specs[i]);
        const bool match = serial == threaded[i];
        ok = ok && match;
        table.row({std::to_string(seed),
                   load::toString(specs[i].arrival), hex(serial),
                   match ? "yes" : "NO"});
    }
    return ok;
}

int
ladder(const Options &o)
{
    Checker c;
    sim::Table digests("Generator stream digests, serial vs "
                       "SweepRunner");
    digests.header({"seed", "arrival", "digest", "match"});
    for (std::uint64_t seed : o.seeds)
        c.expect(checkGeneratorDigests(seed, digests), seed,
                 "generator digest serial != threaded");
    digests.print();
    std::printf("\n");

    sim::Table table("Cluster ladder: 4-node CPU+DPU fleet, "
                     "least-outstanding dispatch, token bucket at "
                     "300/s");
    table.header({"seed", "rung", "arrivals", "admitted", "shed",
                  "dropped", "completed", "p50us", "p99us", "p999us",
                  "qmax", "util"});
    std::vector<std::string> rows;
    for (std::uint64_t seed : o.seeds) {
        for (const Rung &rung : kLadder) {
            const double rate = kAdmittedPerSecond * rung.factor;
            cluster::ScenarioSpec spec = fourNodes(
                ladderStream(seed, rate, load::ArrivalKind::Poisson));
            spec.admission.tokensPerSecond = kAdmittedPerSecond;
            spec.admission.bucketCapacity = 200.0;
            const cluster::ScenarioResult r = cluster::run(spec);
            const cluster::ClusterSummary &s = r.summary;
            table.row({std::to_string(seed), rung.label,
                       std::to_string(s.arrivals),
                       std::to_string(s.admitted),
                       std::to_string(s.shed),
                       std::to_string(s.dropped),
                       std::to_string(s.completed), fmt(s.p50Us),
                       fmt(s.p99Us), fmt(s.p999Us),
                       std::to_string(s.queueMaxDepth),
                       fmt(meanUtilization(s) * 100.0)});
            rows.push_back(strf(
                "{\"seed\": %llu, \"rung\": \"%s\", \"rate\": %.1f, "
                "\"arrivals\": %lld, \"admitted\": %lld, \"shed\": %lld, "
                "\"dropped\": %lld, \"completed\": %lld, \"errors\": %lld, "
                "\"queue_max\": %lld, \"throughput\": %.1f, "
                "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
                "\"util_mean\": %.4f, \"digest\": \"%s\"}",
                (unsigned long long)seed, rung.label, rate,
                (long long)s.arrivals, (long long)s.admitted,
                (long long)s.shed, (long long)s.dropped,
                (long long)s.completed, (long long)s.errors,
                (long long)s.queueMaxDepth, s.throughputPerSecond,
                s.p50Us, s.p99Us, s.p999Us, meanUtilization(s),
                hex(r.digests.stats).c_str()));

            const std::string at = std::string("rung ") + rung.label;
            c.conserves(seed, at, s);
            c.expect(meanUtilization(s) > 0.0, seed,
                     at + ": no per-PU utilization");
            if (!rung.saturated) {
                c.expect(s.shed == 0 && s.dropped == 0, seed,
                         at + ": below saturation but shed/dropped work");
                c.expect(s.errors == 0, seed,
                         at + ": below saturation but invocations "
                              "errored");
            } else {
                c.expect(std::uint64_t(s.arrivals) >= 1'000'000, seed,
                         at + ": top rung generated < 1M arrivals");
                c.expect(s.shed + s.dropped > 0, seed,
                         at + ": saturated rung did not shed");
            }
        }
    }
    table.print();

    if (!o.json.empty())
        writeJson(o.json, "cluster-ladder", rows);
    return c.verdict(o.check,
                     "\nOK: ladder clean — reproducible streams, "
                     "conservation holds, sheds only at saturation",
                     "\nFAIL: cluster ladder violated invariants "
                     "(see stderr)");
}

// ---------------------------------------------------------------------
// policy
// ---------------------------------------------------------------------

/** Measured DPU-bound fleet ceiling (price-ordered, 4x2 BF2). */
constexpr double kCeilingPerSecond = 480.0;

constexpr Rung kPolicyRungs[] = {
    {"0.5x", 0.5, false},
    {"1.6x", 1.6, true},
};

/** One raced configuration. */
struct Combo
{
    const char *label;
    core::PlacementConfig placement;
    core::KeepAliveConfig keepAlive;
};

std::vector<Combo>
combos()
{
    return {
        {"po+lru", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::lru()},
        {"la+lru", core::PlacementConfig::loadAware(),
         core::KeepAliveConfig::lru()},
        {"lo+lru", core::PlacementConfig::locality(),
         core::KeepAliveConfig::lru()},
        {"po+gd", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::greedyDual()},
        {"po+hist", core::PlacementConfig::priceOrdered(),
         core::KeepAliveConfig::histogram()},
    };
}

/** A null @p combo leaves the runtime's policy knobs untouched. */
cluster::ScenarioSpec
policySpec(std::uint64_t seed, double rate, const Combo *combo)
{
    cluster::ScenarioSpec spec =
        fourNodes(stream(seed, rate, SimTime::seconds(30)));
    if (combo != nullptr) {
        spec.fleet.runtime.placement = combo->placement;
        spec.fleet.runtime.startup.keepAlive = combo->keepAlive;
    }
    spec.cost = true;
    return spec;
}

void
printPareto(std::uint64_t seed, const std::vector<Combo> &race,
            const std::vector<cluster::ScenarioResult> &saturated,
            Checker &c)
{
    std::vector<cluster::ParetoPoint> points;
    for (std::size_t i = 0; i < race.size(); ++i) {
        cluster::ParetoPoint p;
        p.label = race[i].label;
        p.p99Us = saturated[i].summary.p99Us;
        p.cost = saturated[i].summary.totalCost;
        p.throughput = saturated[i].summary.throughputPerSecond;
        points.push_back(p);
    }
    const auto frontier = cluster::paretoFrontier(points);
    sim::Table pareto("Latency/cost Pareto, seed " +
                      std::to_string(seed) + " @ saturation");
    pareto.header({"combo", "p99us", "cost$", "thr/s", "front"});
    for (const auto &p : points)
        pareto.row({p.label, fmt(p.p99Us), fmt(p.cost, 4),
                    fmt(p.throughput), p.dominated ? "" : "*"});
    pareto.print();
    std::printf("\n");
    c.expect(!frontier.empty(), seed, "empty Pareto frontier");
    for (std::size_t i = 1; i < frontier.size(); ++i)
        c.expect(frontier[i - 1].p99Us <= frontier[i].p99Us, seed,
                 "Pareto frontier not sorted by p99");
}

int
policy(const Options &o)
{
    Checker c;
    const std::vector<Combo> race = combos();

    sim::Table table("Policy race: 4-node 2xBF2 fleet, open gateway, "
                     "identical seeded streams");
    table.header({"seed", "rung", "combo", "arrivals", "completed",
                  "dropped", "p50us", "p99us", "thr/s", "cost$",
                  "$/1k inv"});
    std::vector<std::string> rows;
    for (std::uint64_t seed : o.seeds) {
        const double calm = kCeilingPerSecond * kPolicyRungs[0].factor;
        c.expect(cluster::run(policySpec(seed, calm, nullptr)).digests ==
                     cluster::run(policySpec(seed, calm, &race[0]))
                         .digests,
                 seed,
                 "installing the default policies explicitly "
                 "perturbed the digest triple");

        cluster::Replays saturated;
        for (const Rung &rung : kPolicyRungs) {
            std::vector<cluster::ScenarioSpec> specs;
            for (const Combo &combo : race)
                specs.push_back(policySpec(
                    seed, kCeilingPerSecond * rung.factor, &combo));
            std::vector<cluster::ScenarioResult> results;
            if (rung.saturated) {
                saturated = cluster::replay(specs);
                results = saturated.serial;
            } else {
                for (const cluster::ScenarioSpec &spec : specs)
                    results.push_back(cluster::run(spec));
            }
            for (std::size_t i = 0; i < race.size(); ++i) {
                const cluster::ScenarioResult &r = results[i];
                const cluster::ClusterSummary &s = r.summary;
                table.row({std::to_string(seed), rung.label,
                           race[i].label, std::to_string(s.arrivals),
                           std::to_string(s.completed),
                           std::to_string(s.dropped), fmt(s.p50Us),
                           fmt(s.p99Us), fmt(s.throughputPerSecond),
                           fmt(s.totalCost, 4),
                           fmt(s.costPerInvocation * 1000.0, 6)});
                rows.push_back(strf(
                    "{\"seed\": %llu, \"rung\": \"%s\", \"combo\": "
                    "\"%s\", \"arrivals\": %lld, \"admitted\": %lld, "
                    "\"dropped\": %lld, \"completed\": %lld, "
                    "\"errors\": %lld, \"throughput\": %.1f, "
                    "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                    "\"cost_usd\": %.6f, \"cost_per_inv_usd\": %.9f, "
                    "\"stats_digest\": \"%s\", \"place_digest\": \"%s\", "
                    "\"evict_digest\": \"%s\"}",
                    (unsigned long long)seed, rung.label, race[i].label,
                    (long long)s.arrivals, (long long)s.admitted,
                    (long long)s.dropped, (long long)s.completed,
                    (long long)s.errors, s.throughputPerSecond, s.p50Us,
                    s.p99Us, s.totalCost, s.costPerInvocation,
                    hex(r.digests.stats).c_str(),
                    hex(r.digests.place).c_str(),
                    hex(r.digests.evict).c_str()));

                c.conserves(seed, race[i].label, s);
                c.expect(s.totalCost > 0.0 && s.costPerInvocation > 0.0,
                         seed,
                         std::string(race[i].label) +
                             ": completions not costed");
            }
        }

        // Load-aware must beat the price-ordered DPU-bound ceiling
        // once the fleet saturates. The open gateway drains its
        // backlog after the generator stops, so completed counts tie:
        // the win is a strictly higher service rate and a strictly
        // lower p99.
        const cluster::ClusterSummary &po = saturated.serial[0].summary;
        const cluster::ClusterSummary &la = saturated.serial[1].summary;
        c.expect(la.throughputPerSecond > po.throughputPerSecond, seed,
                 "load-aware did not raise saturated service rate "
                 "over price-ordered (" +
                     fmt(la.throughputPerSecond) +
                     " <= " + fmt(po.throughputPerSecond) + "/s)");
        c.expect(la.p99Us < po.p99Us, seed,
                 "load-aware did not cut saturated p99 vs "
                 "price-ordered (" +
                     fmt(la.p99Us) + " >= " + fmt(po.p99Us) + "us)");
        for (std::size_t i = 0; i < race.size(); ++i)
            c.expect(saturated.agree(i), seed,
                     std::string(race[i].label) +
                         ": digests differ on re-run or under "
                         "SweepRunner");
        printPareto(seed, race, saturated.serial, c);
    }
    table.print();

    if (!o.json.empty())
        writeJson(o.json, "policy-race", rows);
    return c.verdict(o.check,
                     "\nOK: policy race clean — swap-safe defaults, "
                     "reproducible digest triples, load-aware beats "
                     "the DPU-bound ceiling",
                     "\nFAIL: policy race violated invariants "
                     "(see stderr)");
}

// ---------------------------------------------------------------------
// slo
// ---------------------------------------------------------------------

/** Offered load; well above what the 2-node fleet can serve. */
constexpr double kOfferedPerSecond = 400.0;

/** Latency objective: 99% of requests under 20 ms. */
constexpr double kLatencyThresholdUs = 20'000.0;

cluster::ScenarioSpec
sloSpec(std::uint64_t seed, bool chaos)
{
    cluster::ScenarioSpec spec;
    spec.fleet.nodes = 2;
    spec.fleet.dpusPerNode = 1;
    spec.trace = stream(seed, kOfferedPerSecond, SimTime::seconds(40));
    // No policing: let the queue grow.
    spec.admission.queueCapacity = 8192;
    spec.admission.maxOutstandingPerNode = 48;

    obs::SloObjective latency;
    latency.name = "latency-p99";
    latency.kind = obs::SloObjective::Kind::Latency;
    latency.thresholdUs = kLatencyThresholdUs;
    latency.targetFraction = 0.99;
    latency.burnThreshold = 4.0;
    latency.shortWindows = 3;
    latency.longWindows = 12;
    obs::SloObjective errors = latency;
    errors.name = "error-rate";
    errors.kind = obs::SloObjective::Kind::ErrorRate;
    errors.targetFraction = 0.999;
    spec.telemetry = obs::SloSpec{.objectives = {latency, errors}};

    if (chaos) {
        fault::InjectionPlan plan;
        plan.crashPu(1, SimTime::seconds(10), SimTime::seconds(5));
        spec.faults = plan;
    }
    return spec;
}

struct Conservation
{
    std::string what;
    std::int64_t windowSum = 0;
    std::int64_t runTotal = 0;
};

/** One window of the per-tenant timeline table. */
struct TimelineRow
{
    std::uint64_t window = 0;
    std::vector<std::int64_t> completed;
    std::vector<double> p99Us;
    std::vector<std::int64_t> above;
    int alertsAt = 0;
};

/** What the slo tables and checks read off one driven scenario. */
struct SloRun
{
    cluster::ScenarioResult result;
    std::vector<obs::AlertEvent> alerts;
    std::vector<TimelineRow> timeline;
    std::vector<Conservation> conservation;
    std::uint64_t windowsClosed = 0;
    std::size_t flightDumps = 0;
};

SloRun
observe(cluster::Scenario &scenario, std::uint32_t tenants)
{
    obs::TimeSeries &ts = scenario.timeSeries();
    SloRun out;
    out.result = scenario.result();
    out.alerts = scenario.monitor().alerts();
    out.windowsClosed = ts.windowsClosed();
    out.flightDumps = scenario.recorder().dumpCount();

    // Window deltas summed over the whole run must reproduce the run
    // totals exactly: the per-tenant series fed directly and the
    // watched cluster.* registry counters.
    std::vector<std::uint32_t> completedIds;
    std::vector<std::uint32_t> errorIds;
    for (std::uint32_t t = 0; t < tenants; ++t) {
        completedIds.push_back(
            ts.counterId("tenant.completed", int(t)));
        errorIds.push_back(ts.counterId("tenant.errors", int(t)));
    }
    const std::uint32_t clusterCompleted =
        ts.counterId("cluster.completed");
    const std::uint32_t clusterArrivals =
        ts.counterId("cluster.arrivals");

    std::vector<std::int64_t> sumCompleted(tenants, 0);
    std::vector<std::int64_t> sumErrors(tenants, 0);
    std::int64_t sumClusterCompleted = 0;
    std::int64_t sumClusterArrivals = 0;
    const auto count = [](const obs::WindowPoint *p) {
        return p != nullptr ? p->count : 0;
    };
    for (const obs::WindowRecord &w : ts.windows()) {
        TimelineRow row;
        row.window = w.index;
        for (std::uint32_t t = 0; t < tenants; ++t) {
            const std::int64_t completed = count(w.find(completedIds[t]));
            sumCompleted[t] += completed;
            sumErrors[t] += count(w.find(errorIds[t]));
            const obs::WindowPoint *lat = w.find(
                ts.histogramId("tenant.e2e_us", int(t)));
            row.completed.push_back(completed);
            row.p99Us.push_back(lat != nullptr ? lat->p99 : 0.0);
            row.above.push_back(lat != nullptr ? lat->above : 0);
        }
        sumClusterCompleted += count(w.find(clusterCompleted));
        sumClusterArrivals += count(w.find(clusterArrivals));
        for (const obs::AlertEvent &a : out.alerts)
            if (a.window == w.index)
                ++row.alertsAt;
        out.timeline.push_back(std::move(row));
    }

    const cluster::ClusterSummary &s = out.result.summary;
    for (const cluster::TenantSummary &trow : s.tenants) {
        const auto t = std::uint32_t(trow.tenant);
        const std::string label = "[" + std::to_string(trow.tenant) + "]";
        out.conservation.push_back(
            {"tenant.completed" + label, sumCompleted[t], trow.completed});
        out.conservation.push_back(
            {"tenant.errors" + label, sumErrors[t], trow.errors});
    }
    out.conservation.push_back(
        {"cluster.completed", sumClusterCompleted, s.completed});
    out.conservation.push_back(
        {"cluster.arrivals", sumClusterArrivals, s.arrivals});
    return out;
}

/** The first seed's exporter artifacts. */
void
writeArtifacts(cluster::Scenario &scenario, const Options &o)
{
    if (!o.timeline.empty() &&
        obs::writeText(o.timeline,
                       obs::jsonLinesTimeline(scenario.timeSeries())))
        std::printf("timeline -> %s\n", o.timeline.c_str());
    if (!o.openMetrics.empty() &&
        obs::writeText(o.openMetrics,
                       obs::openMetricsText(scenario.timeSeries())))
        std::printf("openmetrics -> %s\n", o.openMetrics.c_str());
    if (!o.dump.empty()) {
        const obs::FlightRecorder &recorder = scenario.recorder();
        if (recorder.dumpCount() > 0)
            recorder.writeLast(o.dump);
        std::printf("flight dump -> %s (dumps=%llu triggers=%llu)\n",
                    o.dump.c_str(),
                    (unsigned long long)recorder.dumpCount(),
                    (unsigned long long)recorder.triggerCount());
    }
}

void
printSloTables(std::uint64_t seed, const SloRun &run)
{
    sim::Table timeline("Per-tenant timeline, seed " +
                        std::to_string(seed) +
                        " (1 s windows; alpha=tenant 0, beta=tenant 1)");
    timeline.header({"win", "t0.done", "t0.p99us", "t0.over", "t1.done",
                     "t1.p99us", "t1.over", "alerts"});
    for (const TimelineRow &row : run.timeline)
        timeline.row({std::to_string(row.window),
                      std::to_string(row.completed[0]),
                      fmt(row.p99Us[0]), std::to_string(row.above[0]),
                      std::to_string(row.completed[1]),
                      fmt(row.p99Us[1]), std::to_string(row.above[1]),
                      std::to_string(row.alertsAt)});
    timeline.print();

    sim::Table alerts("Alert transitions, seed " + std::to_string(seed));
    alerts.header({"win", "tenant", "objective", "edge", "burn3",
                   "burn12"});
    for (const obs::AlertEvent &a : run.alerts)
        alerts.row({std::to_string(a.window), std::to_string(a.tenant),
                    a.objective == 0 ? "latency-p99" : "error-rate",
                    a.fired ? "FIRE" : "resolve", fmt(a.burnShort),
                    fmt(a.burnLong)});
    alerts.print();
    std::printf("\n");
}

int
slo(const Options &o)
{
    Checker c;
    std::vector<cluster::ScenarioSpec> specs;
    std::vector<SloRun> runs;
    for (std::uint64_t seed : o.seeds) {
        specs.push_back(sloSpec(seed, o.chaos));
        cluster::Scenario scenario(specs.back());
        scenario.drive();
        runs.push_back(
            observe(scenario, specs.back().trace.tenantCount()));
        if (runs.size() == 1)
            writeArtifacts(scenario, o);
    }

    const cluster::Replays replays = cluster::replay(specs);
    sim::Table digests("Telemetry digests: serial vs re-run vs "
                       "SweepRunner");
    digests.header({"seed", "stats", "windows", "alerts", "match"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const cluster::ScenarioDigests &d = replays.serial[i].digests;
        const bool match =
            replays.agree(i) && d == runs[i].result.digests;
        digests.row({std::to_string(o.seeds[i]), hex(d.stats),
                     hex(d.windows), hex(d.alerts), match ? "yes" : "NO"});
        c.expect(match, o.seeds[i],
                 "digest triple serial != re-run/SweepRunner");
    }
    digests.print();
    std::printf("\n");

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t seed = o.seeds[i];
        const SloRun &run = runs[i];
        printSloTables(seed, run);
        if (!o.check)
            continue;
        for (const Conservation &k : run.conservation)
            c.expect(k.windowSum == k.runTotal, seed,
                     k.what + ": window sum " +
                         std::to_string(k.windowSum) + " != run total " +
                         std::to_string(k.runTotal));
        c.expect(run.windowsClosed >= 30, seed,
                 "expected >= 30 closed windows, got " +
                     std::to_string(run.windowsClosed));
        bool latencyFired = false;
        for (const obs::AlertEvent &a : run.alerts)
            latencyFired = latencyFired || (a.fired && a.objective == 0);
        c.expect(latencyFired, seed,
                 "over-saturated stream fired no latency alert");
        c.conserves(seed, "run", run.result.summary);
        if (o.chaos) {
            c.expect(run.flightDumps > 0, seed,
                     "chaos run produced no flight-recorder dump");
        } else {
            // The bare run has no fault plane, so only the
            // fault-free shape has a baseline to compare with.
            cluster::ScenarioSpec bare = specs[i];
            bare.telemetry.reset();
            c.expect(cluster::run(bare).digests.stats ==
                         run.result.digests.stats,
                     seed, "attaching TimeSeries moved the stats digest");
        }
    }
    return c.verdict(o.check,
                     "OK: alert stream reproducible, window sums "
                     "conserve, observation does not perturb",
                     "FAIL: telemetry plane violated invariants "
                     "(see stderr)");
}

// ---------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------

struct Subcommand
{
    const char *name;
    /** The usage line; it also lists the flags the subcommand takes. */
    const char *flags;
    int (*run)(const Options &);
};

constexpr Subcommand kSubcommands[] = {
    {"ladder", "[--check] [--json PATH] [--seed N]...", ladder},
    {"policy", "[--check] [--json PATH] [--seed N]...", policy},
    {"slo",
     "[--check] [--chaos] [--dump PATH] [--timeline PATH] "
     "[--openmetrics PATH] [--seed N]...",
     slo},
};

bool
accepts(const Subcommand &cmd, const std::string &flag)
{
    const std::string flags = cmd.flags;
    return flags.find("[" + flag + "]") != std::string::npos ||
           flags.find("[" + flag + " ") != std::string::npos;
}

/** Parse the flags after the subcommand word; false on a bad one. */
bool
parse(const Subcommand &cmd, int argc, char **argv, Options &o)
{
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (!accepts(cmd, a))
            return false;
        if (a == "--check") {
            o.check = true;
        } else if (a == "--chaos") {
            o.chaos = true;
        } else if (i + 1 >= argc) {
            return false;
        } else if (a == "--seed") {
            o.seeds.push_back(std::strtoull(argv[++i], nullptr, 10));
        } else {
            std::string &path = a == "--json"       ? o.json
                                : a == "--dump"     ? o.dump
                                : a == "--timeline" ? o.timeline
                                                    : o.openMetrics;
            path = argv[++i];
        }
    }
    if (o.seeds.empty())
        o.seeds.assign(std::begin(kSeeds), std::end(kSeeds));
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const Subcommand &cmd : kSubcommands) {
        Options o;
        if (argc > 1 && cmd.name == std::string(argv[1]) &&
            parse(cmd, argc, argv, o))
            return cmd.run(o);
    }
    const char *lead = "usage:";
    for (const Subcommand &cmd : kSubcommands) {
        std::fprintf(stderr, "%s cluster_report %s %s\n", lead, cmd.name,
                     cmd.flags);
        lead = "      ";
    }
    return 2;
}
