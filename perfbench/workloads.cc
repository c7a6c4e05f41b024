#include "workloads.hh"

#include "workloads/catalog.hh"

namespace perfbench {

namespace {

std::vector<std::string>
churnFunctions()
{
    std::vector<std::string> fns;
    for (const auto &fn : workloads::Catalog::functionBenchNames())
        if (fn != "video-processing")
            fns.push_back(fn);
    for (const auto &fn : workloads::Catalog::alexaChain())
        fns.push_back(fn);
    for (const auto &fn : workloads::Catalog::mapReduceChain())
        fns.push_back(fn);
    fns.push_back("helloworld");
    return fns;
}

std::vector<std::string>
chainFunctions()
{
    std::vector<std::string> fns = workloads::Catalog::alexaChain();
    for (const auto &fn : workloads::Catalog::mapReduceChain())
        fns.push_back(fn);
    return fns;
}

const std::vector<Workload> &
all()
{
    static const std::vector<Workload> workloads = [] {
        const std::vector<std::string> saturated = {
            "helloworld", "pyaes", "dd", "gzip-compression"};
        const std::vector<std::string> churn = churnFunctions();
        std::vector<Workload> w;
        w.push_back(Workload{
            "warm_saturated", Front::Gateway, saturated, saturated,
            {{"alpha", 3.0, 1.1, 43}, {"beta", 1.0, 0.8, 40}}, 768.0,
            10.0, 100.0, core::PlacementConfig::loadAware(),
            core::KeepAliveConfig::lru(), 256, 0});
        w.push_back(Workload{
            "cold_churn", Front::Gateway, churn, churn,
            {{"alpha", 1.0, 0.3, 43}, {"beta", 1.0, 0.3, 40}}, 400.0,
            10.0, 100.0, core::PlacementConfig::loadAware(),
            core::KeepAliveConfig::greedyDual(), 2, 6});
        w.push_back(Workload{
            "chain_nipc", Front::Chains, chainFunctions(),
            {"mapreduce", "alexa"}, {{"chains", 1.0, 1.0, 1}}, 100.0,
            10.0, 50.0, core::PlacementConfig::loadAware(),
            core::KeepAliveConfig::lru(), 256, 0});
        return w;
    }();
    return workloads;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &wl : all())
        if (name == wl.name)
            return &wl;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &wl : all())
        names.push_back(wl.name);
    return names;
}

load::TraceSpec
traceSpec(const Workload &wl, std::uint64_t seed)
{
    load::TraceSpec spec;
    spec.seed = seed;
    spec.ratePerSecond = wl.ratePerSecond;
    spec.duration =
        sim::SimTime::fromSeconds(wl.warmupSeconds + wl.measuredSeconds);
    spec.functions = wl.streamEntries;
    spec.tenants = wl.tenants;
    for (load::TenantSpec &t : spec.tenants)
        t.permuteSalt ^= seed;
    return spec;
}

cluster::FleetSpec
fleetSpec(const Workload &wl)
{
    cluster::FleetSpec spec;
    spec.nodes = 4;
    spec.dpusPerNode = 2;
    spec.warmCapacity = wl.warmCapacity;
    spec.runtime.placement = wl.placement;
    spec.runtime.startup.keepAlive = wl.keepAlive;
    spec.runtime.startup.globalWarmCapacityPerPu =
        wl.globalWarmCapacityPerPu;
    return spec;
}

void
registerFunctions(const Workload &wl, cluster::Fleet &fleet)
{
    for (const auto &fn : wl.functions)
        fleet.registerCpuFunction(fn,
                                  {hw::PuType::HostCpu, hw::PuType::Dpu});
}

cluster::AdmissionOptions
admission()
{
    cluster::AdmissionOptions opts;
    opts.tokensPerSecond = 0.0;
    opts.queueCapacity = 2048;
    opts.maxOutstandingPerNode = 96;
    opts.invoke.maxAttempts = 2;
    return opts;
}

std::vector<ChainPlan>
chainPlans(const Workload &wl, core::Molecule &node)
{
    const std::vector<int> &pus = node.deployment().generalPus();
    std::vector<ChainPlan> plans;
    for (const auto &entry : wl.streamEntries) {
        ChainPlan plan;
        plan.spec = core::ChainSpec::linear(
            entry, entry == "alexa"
                       ? workloads::Catalog::alexaChain()
                       : workloads::Catalog::mapReduceChain());
        for (std::size_t i = 0; i < plan.spec.nodes.size(); ++i)
            plan.placement.push_back(pus[i % pus.size()]);
        plans.push_back(std::move(plan));
    }
    return plans;
}

} // namespace perfbench
