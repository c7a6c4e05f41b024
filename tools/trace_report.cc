/**
 * @file
 * trace_report: turn obs traces into phase breakdowns and validate
 * exported trace files.
 *
 * Subcommands (all run the real stack in simulation; nothing here
 * needs a prior run):
 *
 *   fig10 [--check]
 *       Cold-start one Python function with tracing on and print the
 *       Figure-10-style startup phase decomposition from the span
 *       tree. --check additionally verifies the invariant that the
 *       root span's phase durations sum exactly to the end-to-end
 *       latency (sim time makes this exact, not approximate).
 *
 *   fig12 --json PATH [--bin PATH] [--validate]
 *       Run the Alexa DAG (CPU->DPU placement) with tracing on and
 *       export the Chrome trace-event JSON (loads in Perfetto).
 *       --validate checks the span tree (one span per layer per
 *       invocation, nIPC spans on cross-PU traces) and the emitted
 *       file's structure.
 *
 *   report BIN
 *       Load a binary trace written by obs::writeBinary and print the
 *       per-phase latency table (count, total, p50/p95/p99).
 *
 *   recovery [--check]
 *       Crash a DPU under traced load and print the fault->recovery
 *       timeline (fault.inject, retry.backoff, fault.restart,
 *       recovery.resync + recovery.rewarm). --check verifies the
 *       causal shape: the fault span precedes recovery, the resync
 *       moved bytes, and the re-warm completed.
 *
 *   --validate FILE
 *       Structurally validate an existing Chrome trace JSON file.
 *
 * Exit status is non-zero when any requested check fails, so CI can
 * gate on it.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "fault/injector.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "sim/table.hh"
#include "workloads/catalog.hh"

namespace {

using namespace molecule;

/** Span records index: children grouped under each parent id. */
struct SpanTree
{
    std::vector<obs::SpanRecord> records;
    std::map<std::uint64_t, const obs::SpanRecord *> byId;
    std::map<std::uint64_t, std::vector<const obs::SpanRecord *>> kids;

    explicit SpanTree(std::vector<obs::SpanRecord> recs)
        : records(std::move(recs))
    {
        for (const auto &r : records) {
            byId[r.spanId] = &r;
            kids[r.parentId].push_back(&r);
        }
    }

    std::int64_t
    durationNs(const obs::SpanRecord &r) const
    {
        return r.end - r.start;
    }

    /** All layers present in @p root's subtree (inclusive). */
    void
    collectLayers(const obs::SpanRecord &root,
                  std::set<int> &layers) const
    {
        layers.insert(int(root.layer));
        auto it = kids.find(root.spanId);
        if (it == kids.end())
            return;
        for (const auto *k : it->second)
            collectLayers(*k, layers);
    }

    void
    collectPus(const obs::SpanRecord &root, std::set<int> &pus) const
    {
        if (root.pu >= 0)
            pus.insert(root.pu);
        auto it = kids.find(root.spanId);
        if (it == kids.end())
            return;
        for (const auto *k : it->second)
            collectPus(*k, pus);
    }
};

double
toMs(std::int64_t ns)
{
    return double(ns) / 1e6;
}

/**
 * The fig10 scenario: one cold cfork invocation of a Python function
 * with a tracer attached. Returns the tracer's record buffer.
 */
std::vector<obs::SpanRecord>
runFig10Scenario()
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    auto computer = hw::buildCpuDpuServer(simu, 2,
                                          hw::DpuGeneration::Bf1);
    core::MoleculeOptions options;
    options.tracer = &tracer;
    core::Molecule runtime(*computer, options);
    runtime.registerCpuFunction("image-resize",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.start();
    (void)runtime.runSync(runtime.invoke("image-resize", {.pu = 0}));
    return tracer.records().snapshot();
}

/** The fig12 scenario: Alexa DAG, CPU->DPU placement, IPC mode. */
std::vector<obs::SpanRecord>
runFig12Scenario()
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    auto computer = hw::buildCpuDpuServer(simu, 2,
                                          hw::DpuGeneration::Bf1);
    core::MoleculeOptions options;
    options.tracer = &tracer;
    core::Molecule runtime(*computer, options);
    for (const auto &fn : workloads::Catalog::alexaChain())
        runtime.registerCpuFunction(fn,
                                    {hw::PuType::HostCpu,
                                     hw::PuType::Dpu});
    runtime.start();

    core::ChainSpec spec;
    spec.name = "alexa";
    auto fns = workloads::Catalog::alexaChain();
    spec.nodes.push_back(core::ChainNode{fns[0], -1});
    spec.nodes.push_back(core::ChainNode{fns[1], 0});
    spec.nodes.push_back(core::ChainNode{fns[2], 1});
    spec.nodes.push_back(core::ChainNode{fns[3], 2});
    spec.nodes.push_back(core::ChainNode{fns[4], 2});
    (void)runtime.runSync(runtime.invokeChain(spec, {0, 1, 0, 1, 1}));
    return tracer.records().snapshot();
}

/** Print the startup phase decomposition of the first trace. */
int
cmdFig10(bool check)
{
    SpanTree tree(runFig10Scenario());

    // The root "invoke" span of the (single) trace.
    const obs::SpanRecord *root = nullptr;
    for (const auto &r : tree.records)
        if (r.parentId == 0 && std::strcmp(r.name, "invoke") == 0)
            root = &r;
    if (root == nullptr) {
        std::fprintf(stderr, "no root invoke span recorded\n");
        return 1;
    }

    sim::Table t("Figure-10 startup phase decomposition (cold cfork)");
    t.header({"phase", "layer", "ms"});
    std::int64_t phaseSum = 0;
    auto it = tree.kids.find(root->spanId);
    if (it != tree.kids.end()) {
        for (const auto *k : it->second) {
            t.row({k->name, obs::toString(k->layer),
                   sim::Table::num(toMs(tree.durationNs(*k)), 3)});
            phaseSum += tree.durationNs(*k);
        }
    }
    t.row({"end-to-end", "core",
           sim::Table::num(toMs(tree.durationNs(*root)), 3)});
    t.print();

    if (!check)
        return 0;
    // The phases of one invocation are sequential and contiguous in
    // sim time, so their durations must sum exactly to the root's.
    if (phaseSum != tree.durationNs(*root)) {
        std::fprintf(stderr,
                     "FAIL: phase sum %lld ns != end-to-end %lld ns\n",
                     (long long)phaseSum,
                     (long long)tree.durationNs(*root));
        return 1;
    }
    std::printf("OK: phases sum to end-to-end latency (%lld ns)\n",
                (long long)tree.durationNs(*root));
    return 0;
}

/**
 * Span-tree validation: every per-node "invoke" subtree must touch
 * the core, os, sandbox and hw layers; every trace whose spans touch
 * more than one PU must contain xpu-layer (nIPC) spans.
 */
bool
validateRecords(const SpanTree &tree)
{
    bool ok = true;
    int invokes = 0;
    for (const auto &r : tree.records) {
        if (std::strcmp(r.name, "invoke") != 0)
            continue;
        ++invokes;
        std::set<int> layers;
        tree.collectLayers(r, layers);
        for (obs::Layer need :
             {obs::Layer::Core, obs::Layer::Os, obs::Layer::Sandbox,
              obs::Layer::Hw}) {
            if (!layers.count(int(need))) {
                std::fprintf(stderr,
                             "FAIL: invoke span %llu (%s) has no %s "
                             "layer span\n",
                             (unsigned long long)r.spanId, r.detail,
                             obs::toString(need));
                ok = false;
            }
        }
    }
    if (invokes == 0) {
        std::fprintf(stderr, "FAIL: no invoke spans recorded\n");
        ok = false;
    }

    // Per-trace cross-PU check.
    std::map<std::uint64_t, std::set<int>> pusOf;
    std::map<std::uint64_t, bool> hasXpu;
    for (const auto &r : tree.records) {
        if (r.pu >= 0)
            pusOf[r.traceId].insert(r.pu);
        if (r.layer == obs::Layer::Xpu)
            hasXpu[r.traceId] = true;
    }
    for (const auto &[trace, pus] : pusOf) {
        if (pus.size() > 1 && !hasXpu[trace]) {
            std::fprintf(stderr,
                         "FAIL: trace %016llx spans %zu PUs but has "
                         "no xpu-layer span\n",
                         (unsigned long long)trace, pus.size());
            ok = false;
        }
    }
    return ok;
}

/**
 * Structural validation of a Chrome trace JSON file: quote-aware
 * brace/bracket balance, the traceEvents envelope, and matched
 * async/flow event pairs. (Not a full JSON parser — the goal is to
 * catch emitter regressions, not to re-implement Perfetto.)
 */
bool
validateJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "FAIL: cannot open '%s'\n", path.c_str());
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    long brace = 0, bracket = 0;
    bool inString = false, escape = false;
    for (char c : text) {
        if (escape) {
            escape = false;
            continue;
        }
        if (c == '\\') {
            escape = inString;
            continue;
        }
        if (c == '"') {
            inString = !inString;
            continue;
        }
        if (inString)
            continue;
        brace += c == '{' ? 1 : c == '}' ? -1 : 0;
        bracket += c == '[' ? 1 : c == ']' ? -1 : 0;
        if (brace < 0 || bracket < 0)
            break;
    }
    bool ok = true;
    if (brace != 0 || bracket != 0 || inString) {
        std::fprintf(stderr,
                     "FAIL: unbalanced JSON structure in '%s'\n",
                     path.c_str());
        ok = false;
    }
    if (text.find("\"traceEvents\"") == std::string::npos) {
        std::fprintf(stderr, "FAIL: no traceEvents envelope\n");
        ok = false;
    }

    auto countOf = [&text](const char *needle) {
        std::size_t n = 0, pos = 0;
        const std::size_t len = std::strlen(needle);
        while ((pos = text.find(needle, pos)) != std::string::npos) {
            ++n;
            pos += len;
        }
        return n;
    };
    if (countOf("\"ph\":\"X\"") == 0) {
        std::fprintf(stderr, "FAIL: no complete (X) events\n");
        ok = false;
    }
    if (countOf("\"ph\":\"b\"") != countOf("\"ph\":\"e\"")) {
        std::fprintf(stderr, "FAIL: unbalanced async b/e events\n");
        ok = false;
    }
    if (countOf("\"ph\":\"s\"") != countOf("\"ph\":\"f\"")) {
        std::fprintf(stderr, "FAIL: unbalanced flow s/f events\n");
        ok = false;
    }
    return ok;
}

int
cmdFig12(const std::string &jsonPath, const std::string &binPath,
         bool validate)
{
    SpanTree tree(runFig12Scenario());

    if (!jsonPath.empty() &&
        !obs::writeChromeTrace(jsonPath, tree.records)) {
        std::fprintf(stderr, "FAIL: cannot write '%s'\n",
                     jsonPath.c_str());
        return 1;
    }
    if (!binPath.empty() && !obs::writeBinary(binPath, tree.records)) {
        std::fprintf(stderr, "FAIL: cannot write '%s'\n",
                     binPath.c_str());
        return 1;
    }

    std::set<std::uint64_t> traces;
    for (const auto &r : tree.records)
        traces.insert(r.traceId);
    std::printf("fig12: %zu spans across %zu trace(s)",
                tree.records.size(), traces.size());
    if (!jsonPath.empty())
        std::printf(", json -> %s", jsonPath.c_str());
    if (!binPath.empty())
        std::printf(", bin -> %s", binPath.c_str());
    std::printf("\n");

    if (!validate)
        return 0;
    bool ok = validateRecords(tree);
    if (!jsonPath.empty())
        ok = validateJsonFile(jsonPath) && ok;
    if (ok)
        std::printf("OK: trace validates\n");
    return ok ? 0 : 1;
}

/**
 * The recovery scenario: warm a DPU, crash it under a planned fault
 * while invocations retry with failover, let it restart and re-warm.
 */
std::vector<obs::SpanRecord>
runRecoveryScenario()
{
    sim::Simulation simu;
    obs::Tracer tracer(simu, 42);
    auto computer = hw::buildCpuDpuServer(simu, 2,
                                          hw::DpuGeneration::Bf1);
    fault::FaultState faults;
    core::MoleculeOptions options;
    options.tracer = &tracer;
    options.faults = &faults;
    core::Molecule runtime(*computer, options);
    runtime.registerCpuFunction("image-resize",
                                {hw::PuType::HostCpu, hw::PuType::Dpu});
    runtime.start();

    core::InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    // Warm the DPU.
    (void)runtime.runSync(runtime.invoke("image-resize", opts));

    fault::Injector injector(simu, faults, &tracer);
    fault::InjectionPlan plan;
    plan.crashPu(1, simu.now(), sim::SimTime::milliseconds(6));
    injector.arm(plan);
    (void)runtime.runSync(runtime.invoke("image-resize", opts)); // fails over
    // Back on the DPU.
    (void)runtime.runSync(runtime.invoke("image-resize", opts));
    return tracer.records().snapshot();
}

/** Print the fault->recovery timeline; optionally check its shape. */
int
cmdRecovery(bool check)
{
    SpanTree tree(runRecoveryScenario());

    sim::Table t("Fault -> recovery timeline (DPU crash + restart)");
    t.header({"t (ms)", "span", "layer", "pu", "ms", "detail"});
    const obs::SpanRecord *inject = nullptr;
    const obs::SpanRecord *recovery = nullptr;
    const obs::SpanRecord *resync = nullptr;
    const obs::SpanRecord *rewarm = nullptr;
    bool sawBackoff = false;
    for (const auto &r : tree.records) {
        const bool interesting =
            std::strncmp(r.name, "fault.", 6) == 0 ||
            std::strncmp(r.name, "recovery", 8) == 0 ||
            std::strcmp(r.name, "retry.backoff") == 0;
        if (!interesting)
            continue;
        t.row({sim::Table::num(toMs(r.start), 3), r.name,
               obs::toString(r.layer), std::to_string(r.pu),
               sim::Table::num(toMs(tree.durationNs(r)), 3), r.detail});
        if (std::strcmp(r.name, "fault.inject") == 0)
            inject = &r;
        else if (std::strcmp(r.name, "recovery") == 0)
            recovery = &r;
        else if (std::strcmp(r.name, "recovery.resync") == 0)
            resync = &r;
        else if (std::strcmp(r.name, "recovery.rewarm") == 0)
            rewarm = &r;
        else if (std::strcmp(r.name, "retry.backoff") == 0)
            sawBackoff = true;
    }
    t.print();

    if (!check)
        return 0;
    bool ok = true;
    auto require = [&ok](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "FAIL: %s\n", what);
            ok = false;
        }
    };
    require(inject != nullptr, "no fault.inject span");
    require(sawBackoff, "no retry.backoff span");
    require(recovery != nullptr, "no recovery root span");
    require(resync != nullptr, "no recovery.resync span");
    require(rewarm != nullptr, "no recovery.rewarm span");
    if (inject != nullptr && recovery != nullptr)
        require(inject->start <= recovery->start,
                "recovery started before the fault");
    if (resync != nullptr)
        require(resync->arg > 0, "capability resync moved no bytes");
    if (recovery != nullptr && rewarm != nullptr)
        require(rewarm->parentId == recovery->spanId,
                "rewarm is not a child of the recovery span");
    if (ok)
        std::printf("OK: fault -> backoff -> restart -> resync -> "
                    "rewarm all traced\n");
    return ok ? 0 : 1;
}

int
cmdReport(const std::string &binPath)
{
    obs::LoadedTrace loaded = obs::readBinary(binPath);
    if (!loaded.ok) {
        std::fprintf(stderr, "FAIL: %s\n", loaded.error.c_str());
        return 1;
    }

    // One histogram per span name, in deterministic (map) order.
    std::map<std::string, obs::Histogram> byName;
    for (const auto &r : loaded.records)
        byName[r.name].add(toMs(r.end - r.start));

    sim::Table t("Per-phase latency (ms) - " + binPath);
    t.header({"phase", "count", "total", "p50", "p95", "p99"});
    for (const auto &[name, h] : byName) {
        t.row({name, sim::Table::num(double(h.count()), 0),
               sim::Table::num(h.sum(), 3),
               sim::Table::num(h.percentile(50), 3),
               sim::Table::num(h.percentile(95), 3),
               sim::Table::num(h.percentile(99), 3)});
    }
    t.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto usage = [] {
        std::fprintf(stderr,
                     "usage: trace_report fig10 [--check]\n"
                     "       trace_report fig12 [--json PATH] "
                     "[--bin PATH] [--validate]\n"
                     "       trace_report recovery [--check]\n"
                     "       trace_report report BIN\n"
                     "       trace_report --validate FILE\n");
        return 2;
    };
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "fig10") {
        bool check = false;
        for (int i = 2; i < argc; ++i)
            check = check || std::string(argv[i]) == "--check";
        return cmdFig10(check);
    }
    if (cmd == "fig12") {
        std::string jsonPath, binPath;
        bool validate = false;
        for (int i = 2; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--json" && i + 1 < argc)
                jsonPath = argv[++i];
            else if (a == "--bin" && i + 1 < argc)
                binPath = argv[++i];
            else if (a == "--validate")
                validate = true;
            else
                return usage();
        }
        return cmdFig12(jsonPath, binPath, validate);
    }
    if (cmd == "recovery") {
        bool check = false;
        for (int i = 2; i < argc; ++i)
            check = check || std::string(argv[i]) == "--check";
        return cmdRecovery(check);
    }
    if (cmd == "report" && argc >= 3)
        return cmdReport(argv[2]);
    if (cmd == "--validate" && argc >= 3)
        return validateJsonFile(argv[2]) ? 0 : 1;
    return usage();
}
