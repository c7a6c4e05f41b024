#include "cluster/scenario.hh"

#include <string>
#include <utility>

#include "fault/injector.hh"
#include "obs/flight_recorder.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/sweep.hh"

namespace molecule::cluster {

namespace {

/** A fleet that is booted before the members declared after it. */
struct BootedFleet : Fleet
{
    BootedFleet(sim::Simulation &sim, const FleetSpec &spec,
                const std::vector<std::string> &functions)
        : Fleet(sim, spec)
    {
        for (const auto &fn : functions)
            registerCpuFunction(fn,
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
        start();
    }
};

FleetSpec
withFaults(const ScenarioSpec &spec, fault::FaultState &faults,
           obs::Tracer *tracer)
{
    FleetSpec fleet = spec.fleet;
    if (spec.faults) {
        fleet.runtime.faults = &faults;
        fleet.runtime.tracer = tracer;
    }
    return fleet;
}

/** Mirror @p stats into @p ts before anything else names a series. */
obs::TimeSeries &
attached(ClusterStats &stats, obs::TimeSeries &ts)
{
    stats.attachTelemetry(&ts);
    return ts;
}

obs::SloSpec
forTenants(obs::SloSpec slo, std::uint32_t tenants)
{
    slo.tenants = tenants;
    return slo;
}

/** Windows, burn-rate alerts and the black box behind them. */
struct Telemetry
{
    Telemetry(sim::Simulation &sim, ClusterStats &stats,
              const obs::SloSpec &slo, std::uint32_t tenants,
              const obs::Tracer *tracer)
        : ts(sim), monitor(attached(stats, ts), forTenants(slo, tenants)),
          recorder(ts, {.keepWindows = 16, .spanTail = 128})
    {
        monitor.addSink(&recorder);
        if (tracer != nullptr)
            recorder.attachTracer(*tracer);
    }

    obs::TimeSeries ts;
    obs::SloMonitor monitor;
    obs::FlightRecorder recorder;
};

} // namespace

struct Scenario::Parts
{
    explicit Parts(const ScenarioSpec &spec)
        : sim(spec.trace.seed),
          tracer(spec.faults ? std::make_unique<obs::Tracer>(
                                   sim, spec.trace.seed)
                             : nullptr),
          fleet(sim, withFaults(spec, faultState, tracer.get()),
                spec.trace.functions),
          stats(registry),
          telemetry(spec.telemetry
                        ? std::make_unique<Telemetry>(
                              sim, stats, *spec.telemetry,
                              spec.trace.tenantCount(), tracer.get())
                        : nullptr),
          gateway(fleet, gatewayConfig(spec)), injector(sim, faultState),
          gen(spec.trace)
    {
        if (spec.cost)
            stats.setCostModel(&cost, fleet.puTypeTable());
        if (telemetry)
            injector.setRecorder(&telemetry->recorder);
        if (spec.faults)
            injector.arm(*spec.faults);
    }

    GatewayConfig
    gatewayConfig(const ScenarioSpec &spec)
    {
        GatewayConfig cfg =
            GatewayConfig::forFunctions(spec.trace.functions, stats);
        cfg.admission = spec.admission;
        if (telemetry)
            cfg.recorder = &telemetry->recorder;
        return cfg;
    }

    sim::Simulation sim;
    fault::FaultState faultState;
    std::unique_ptr<obs::Tracer> tracer;
    BootedFleet fleet;
    obs::Registry registry;
    ClusterStats stats;
    CostModel cost;
    std::unique_ptr<Telemetry> telemetry;
    ClusterGateway gateway;
    fault::Injector injector;
    load::OpenLoopGenerator gen;
    /** Start of the drive: the summary's horizon begins here. */
    sim::SimTime t0;
};

Scenario::Scenario(const ScenarioSpec &spec)
    : parts_(std::make_unique<Parts>(spec))
{}

Scenario::~Scenario() = default;

void
Scenario::drive()
{
    Parts &p = *parts_;
    p.t0 = p.sim.now();
    p.sim.spawn(load::drive(p.sim, p.gen, p.gateway));
    p.sim.run();
    if (p.telemetry)
        p.telemetry->ts.flush();
}

ScenarioResult
Scenario::result()
{
    Parts &p = *parts_;
    ScenarioResult r;
    r.summary =
        p.stats.summarize(p.sim.now() - p.t0, p.fleet.coreTable());
    r.digests.stats = p.stats.digest();
    sim::Fingerprint place;
    sim::Fingerprint evict;
    for (int i = 0; i < p.fleet.size(); ++i) {
        place.mix(p.fleet.node(i).scheduler().placementDigest());
        evict.mix(p.fleet.node(i).startup().evictionDigest());
    }
    r.digests.place = place.digest();
    r.digests.evict = evict.digest();
    if (p.telemetry) {
        r.digests.windows = p.telemetry->ts.digest();
        r.digests.alerts = p.telemetry->monitor.alertDigest();
    }
    r.emitted = p.gen.emitted();
    return r;
}

obs::TimeSeries &
Scenario::timeSeries()
{
    MOLECULE_ASSERT(parts_->telemetry, "scenario has no telemetry");
    return parts_->telemetry->ts;
}

obs::SloMonitor &
Scenario::monitor()
{
    MOLECULE_ASSERT(parts_->telemetry, "scenario has no telemetry");
    return parts_->telemetry->monitor;
}

obs::FlightRecorder &
Scenario::recorder()
{
    MOLECULE_ASSERT(parts_->telemetry, "scenario has no telemetry");
    return parts_->telemetry->recorder;
}

ScenarioResult
run(const ScenarioSpec &spec)
{
    Scenario s(spec);
    s.drive();
    return s.result();
}

Replays
replay(const std::vector<ScenarioSpec> &specs)
{
    Replays r;
    for (const ScenarioSpec &spec : specs)
        r.serial.push_back(run(spec));
    for (const ScenarioSpec &spec : specs)
        r.rerun.push_back(run(spec).digests);
    sim::SweepRunner pool;
    r.swept = pool.map<ScenarioDigests>(specs.size(), [&](std::size_t i) {
        return run(specs[i]).digests;
    });
    return r;
}

} // namespace molecule::cluster
