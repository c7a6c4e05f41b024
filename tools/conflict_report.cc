/**
 * @file
 * Runs representative full-model scenarios with the sim-time conflict
 * detector enabled and prints the report (CI publishes it as an
 * artifact). Exit status: 0 when no conflict is found, 1 otherwise
 * (--strict only; default always 0 so the artifact is advisory).
 *
 * A reported conflict means two same-instant accesses to one tracked
 * model cell were ordered only by the event-queue schedule-sequence
 * tie-break — the simulated result silently depends on schedule-call
 * order. See DESIGN.md "Determinism rules".
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "sim/analysis.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

struct ScenarioResult
{
    std::string name;
    std::size_t records = 0;
    std::uint64_t dropped = 0;
    std::vector<sim::analysis::Conflict> conflicts;
};

/** The determinism-test scenario: cold/warm/remote invokes + a chain. */
ScenarioResult
invokeScenario(std::uint64_t seed)
{
    sim::Simulation sim(seed);
    sim.enableConflictTracking();
    auto computer = hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf1);
    Molecule runtime(*computer, MoleculeOptions{});
    runtime.registerCpuFunction("helloworld",
                                {PuType::HostCpu, PuType::Dpu});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    (void)runtime.invokeSync("helloworld", 0);
    (void)runtime.invokeSync("helloworld", 0);
    (void)runtime.invokeSync("helloworld", 1);
    auto spec = ChainSpec::linear("alexa", Catalog::alexaChain());
    std::vector<int> cross{0, 1, 0, 1, 0};
    (void)runtime.invokeChainSync(spec, cross);

    ScenarioResult r;
    r.name = "invoke-chain seed=" + std::to_string(seed);
    r.records = sim.accessLog()->recordCount();
    r.dropped = sim.accessLog()->droppedRecords();
    r.conflicts = sim.accessLog()->findConflicts();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool strict = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--strict") == 0)
            strict = true;
    }

    std::printf("# Sim-time conflict report\n");
    std::size_t total = 0;
    for (std::uint64_t seed : {42ULL, 7ULL, 1ULL}) {
        const ScenarioResult r = invokeScenario(seed);
        std::printf("\n## %s\n%zu tracked accesses, %llu dropped, "
                    "%zu conflict(s)\n",
                    r.name.c_str(), r.records,
                    static_cast<unsigned long long>(r.dropped),
                    r.conflicts.size());
        for (const auto &c : r.conflicts)
            std::printf("%s\n", sim::analysis::describe(c).c_str());
        total += r.conflicts.size();
    }
    std::printf("\n# total: %zu conflict(s)\n", total);
    return (strict && total > 0) ? 1 : 0;
}
