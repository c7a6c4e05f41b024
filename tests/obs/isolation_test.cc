/**
 * @file
 * Per-simulation tracer isolation and non-perturbation tests.
 *
 * The Tracer is a per-replica collector (obs/trace.hh determinism
 * rules): SweepRunner replicas running the same scenario on separate
 * threads must each produce a complete, byte-identical trace with no
 * cross-talk, and attaching a tracer must not move a single simulated
 * timestamp relative to an untraced run — observation does not
 * perturb.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "sim/sweep.hh"

namespace {

using namespace molecule;

/**
 * Latency fingerprint of a three-invocation scenario (cold + warm +
 * cross-PU cold) on a CPU+DPU server; traced when @p traced, with the
 * exported JSON returned via @p jsonOut.
 */
std::vector<std::int64_t>
scenarioFingerprint(bool traced, std::string *jsonOut = nullptr)
{
    sim::Simulation simu;
    auto computer =
        hw::buildCpuDpuServer(simu, 2, hw::DpuGeneration::Bf1);

    obs::Tracer tracer(simu, 42);
    core::MoleculeOptions options;
    if (traced)
        options.tracer = &tracer;
    core::Molecule runtime(*computer, options);
    runtime.registerCpuFunction("image-resize",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.registerCpuFunction("helloworld",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.start();

    std::vector<std::int64_t> fp;
    auto record = [&fp](const obs::InvocationRecord &rec) {
        fp.push_back(rec.startup.raw());
        fp.push_back(rec.communication.raw());
        fp.push_back(rec.execution.raw());
        fp.push_back(rec.endToEnd.raw());
        fp.push_back(rec.coldStart ? 1 : 0);
    };
    record(runtime.invokeSync("image-resize", 0).value()); // cold
    record(runtime.invokeSync("image-resize", 0).value()); // warm
    record(runtime.invokeSync("helloworld", 1).value());   // cold, remote PU

    if (traced && jsonOut != nullptr)
        *jsonOut = obs::chromeTraceJson(tracer.records());
    return fp;
}

TEST(Isolation, TracingDoesNotPerturbTheSimulation)
{
    // Identical simulated results with and without a tracer attached:
    // spans only read the clock. This is the tracing analogue of the
    // determinism suite's golden-digest invariance.
    EXPECT_EQ(scenarioFingerprint(false), scenarioFingerprint(true));
}

TEST(Isolation, SweepReplicasProduceIdenticalIndependentTraces)
{
    // Serial reference trace.
    std::string reference;
    (void)scenarioFingerprint(true, &reference);
    ASSERT_FALSE(reference.empty());

    // Six replicas across the SweepRunner's threads, each with its
    // own Simulation and Tracer. Any cross-replica leakage (shared
    // collector, ambient-id bleed into parenting, id-counter races)
    // would show up as a byte diff against the serial reference.
    sim::SweepRunner pool;
    auto traces = pool.map<std::string>(6, [](std::size_t) {
        std::string json;
        (void)scenarioFingerprint(true, &json);
        return json;
    });
    ASSERT_EQ(traces.size(), 6u);
    for (std::size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(traces[i], reference) << "replica " << i;
}

TEST(Isolation, TracesAreCompleteUnderSweepRunner)
{
    // Beyond byte-equality: each replica's trace must independently
    // contain the full layer coverage (no half-recorded replicas).
    sim::SweepRunner pool;
    auto traces = pool.map<std::string>(2, [](std::size_t) {
        std::string json;
        (void)scenarioFingerprint(true, &json);
        return json;
    });
    for (const auto &json : traces) {
        for (const char *layer :
             {"\"core\"", "\"os\"", "\"sandbox\"", "\"hw\""})
            EXPECT_NE(json.find(layer), std::string::npos) << layer;
    }
}

} // namespace
