/**
 * @file
 * chaos_report: drive the fault-injection chaos suite and report it.
 *
 * Four scenarios — dpu-crash-restart, link-flap, fpga-reconfig-fail,
 * oom-kill — each run across three seeds with retries + failover
 * enabled and a tracer attached. For every (scenario, seed) pair the
 * run executes twice and the outcome digests must match bit for bit.
 *
 * --strict additionally fails the process unless:
 *   - no invocation ever hit the Errc::Hang sim-time watchdog,
 *   - every scenario fired its planned faults,
 *   - the crash scenario shows retry.backoff spans, a failed-over
 *     invocation and recovery resync+rewarm,
 *   - the FPGA scenario retried (invoke.retry counter) and recovered,
 *   - the OOM scenario actually killed sandboxes (fault.oom_killed).
 *
 * Output is a markdown-friendly table; CI uploads it as an artifact.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "fault/injector.hh"
#include "hw/computer.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

namespace {

using namespace molecule;
using core::Errc;
using core::InvokeOptions;
using core::Molecule;
using core::MoleculeOptions;
using fault::FaultState;
using fault::InjectionPlan;
using hw::PuType;
using sim::SimTime;

struct RunResult
{
    int faultsFired = 0;
    int okCount = 0;
    int typedErrors = 0;
    int hangs = 0;
    bool failedOver = false;
    std::int64_t retries = 0;
    std::int64_t resyncs = 0;
    std::int64_t rewarms = 0;
    std::int64_t oomKilled = 0;
    bool sawBackoffSpan = false;
    bool sawRecoverySpan = false;
    std::uint64_t digest = 0;
};

/** Shared per-run harness: runtime + faults + tracer + fingerprint. */
struct Harness
{
    sim::Simulation sim;
    obs::Tracer tracer;
    FaultState faults;
    std::unique_ptr<hw::Computer> computer;
    std::unique_ptr<Molecule> runtime;
    std::unique_ptr<fault::Injector> injector;
    sim::Fingerprint fp;
    RunResult result;

    explicit Harness(std::uint64_t seed, bool fpga = false)
        : sim(seed), tracer(sim, seed)
    {
        computer = fpga ? hw::buildF1Server(sim, 1)
                        : hw::buildCpuDpuServer(
                              sim, 2, hw::DpuGeneration::Bf1);
        MoleculeOptions mo;
        mo.tracer = &tracer;
        mo.faults = &faults;
        runtime = std::make_unique<Molecule>(*computer, mo);
        if (fpga) {
            runtime->registerFpgaFunction("fpga-gzip");
        } else {
            runtime->registerCpuFunction(
                "helloworld", {PuType::HostCpu, PuType::Dpu});
            runtime->registerCpuFunction(
                "image-resize", {PuType::HostCpu, PuType::Dpu});
        }
        runtime->start();
        injector = std::make_unique<fault::Injector>(sim, faults,
                                                     &tracer);
    }

    void
    track(const core::Expected<obs::InvocationRecord> &out)
    {
        if (out.ok()) {
            ++result.okCount;
            result.failedOver |= out.value().failedOver;
            fp.mix(std::uint64_t(out.value().endToEnd.raw()));
            fp.mix(std::uint64_t(out.value().pu));
        } else if (out.error().code() == Errc::Hang) {
            ++result.hangs;
            fp.mix(0x4a46ULL);
        } else {
            ++result.typedErrors;
            fp.mix(std::uint64_t(out.error().code()));
            fp.mix(std::uint64_t(out.error().retries()));
        }
    }

    /** Close the run: harvest counters, spans and the digest. */
    RunResult
    finish()
    {
        result.faultsFired = injector->firedCount();
        auto &m = tracer.metrics();
        result.retries = m.counter("invoke.retry").value();
        result.resyncs = m.counter("recovery.resync").value();
        result.rewarms = m.counter("recovery.rewarm").value();
        result.oomKilled = m.counter("fault.oom_killed").value();
        for (const auto &r : tracer.records()) {
            result.sawBackoffSpan |=
                std::strcmp(r.name, "retry.backoff") == 0;
            result.sawRecoverySpan |=
                std::strcmp(r.name, "recovery") == 0;
        }
        fp.mix(std::uint64_t(result.faultsFired));
        result.digest = fp.digest();
        return result;
    }
};

/** Crash the busiest DPU under load; expect failover + recovery. */
RunResult
runDpuCrashRestart(std::uint64_t seed)
{
    Harness h(seed);
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    // Warm pu 1.
    h.track(h.runtime->runSync(h.runtime->invoke("helloworld", opts)));

    InjectionPlan plan;
    plan.crashPu(1, h.sim.now(), SimTime::milliseconds(6));
    h.injector->arm(plan);
    // Admission sees the down PU: backoff, then fail over.
    h.track(h.runtime->runSync(h.runtime->invoke("helloworld", opts)));
    // After the restart the PU serves again (cold, re-warmed pools).
    h.track(h.runtime->runSync(h.runtime->invoke("helloworld", opts)));
    h.track(h.runtime->runSync(h.runtime->invoke("image-resize", opts)));
    return h.finish();
}

/** Flap the host<->DPU link twice; everything completes, just slower. */
RunResult
runLinkFlap(std::uint64_t seed)
{
    Harness h(seed);
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    h.track(h.runtime->runSync(h.runtime->invoke("helloworld", opts)));
    for (int flap = 0; flap < 2; ++flap) {
        InjectionPlan plan;
        plan.degradeLink(0, 1, h.sim.now(), SimTime::milliseconds(3),
                         SimTime::milliseconds(9), 4.0);
        h.injector->arm(plan);
        h.track(h.runtime->runSync(h.runtime->invoke("helloworld", opts)));
        h.track(h.runtime->runSync(h.runtime->invoke("image-resize", opts)));
    }
    return h.finish();
}

/** Arm a reconfiguration failure; the retry reprograms and succeeds. */
RunResult
runFpgaReconfigFail(std::uint64_t seed)
{
    Harness h(seed, /*fpga=*/true);
    InjectionPlan plan;
    plan.failFpgaReconfig(h.computer->fpga(0).hostPuId(), h.sim.now());
    h.injector->arm(plan);

    InvokeOptions opts;
    opts.maxAttempts = 3;
    opts.units = 4096;
    h.track(h.runtime->runSync(h.runtime->invoke("fpga-gzip", opts)));
    h.track(h.runtime->runSync(h.runtime->invoke("fpga-gzip", opts)));
    return h.finish();
}

/** OOM-kill the warm pool of a function; next invoke cold-starts. */
RunResult
runOomKill(std::uint64_t seed)
{
    Harness h(seed);
    InvokeOptions opts;
    opts.pu = 1;
    opts.maxAttempts = 3;
    h.track(h.runtime->runSync(h.runtime->invoke("image-resize", opts)));

    InjectionPlan plan;
    plan.oomKill(1, "image-resize", h.sim.now());
    h.injector->arm(plan);
    h.track(h.runtime->runSync(h.runtime->invoke("image-resize", opts)));
    h.track(h.runtime->runSync(h.runtime->invoke("image-resize", opts)));
    return h.finish();
}

struct Scenario
{
    const char *name;
    RunResult (*run)(std::uint64_t seed);
};

constexpr Scenario kScenarios[] = {
    {"dpu-crash-restart", runDpuCrashRestart},
    {"link-flap", runLinkFlap},
    {"fpga-reconfig-fail", runFpgaReconfigFail},
    {"oom-kill", runOomKill},
};

constexpr std::uint64_t kSeeds[] = {42, 7, 1};

int
report(bool strict)
{
    sim::Table table("Chaos suite: 4 scenarios x 3 seeds, run twice");
    table.header({"scenario", "seed", "faults", "ok", "errors", "hangs",
                  "retries", "failover", "digest"});

    bool pass = true;
    auto fail = [&pass](const char *scenario, std::uint64_t seed,
                        const char *what) {
        std::fprintf(stderr, "FAIL: %s seed %llu: %s\n", scenario,
                     (unsigned long long)seed, what);
        pass = false;
    };

    for (const Scenario &sc : kScenarios) {
        for (std::uint64_t seed : kSeeds) {
            const RunResult a = sc.run(seed);
            const RunResult b = sc.run(seed);

            char digest[24];
            std::snprintf(digest, sizeof(digest), "%016llx",
                          (unsigned long long)a.digest);
            table.row({sc.name, std::to_string(seed),
                       std::to_string(a.faultsFired),
                       std::to_string(a.okCount),
                       std::to_string(a.typedErrors),
                       std::to_string(a.hangs),
                       std::to_string(a.retries),
                       a.failedOver ? "yes" : "no", digest});

            if (a.digest != b.digest)
                fail(sc.name, seed, "outcome digest not reproducible");
            if (a.hangs != 0)
                fail(sc.name, seed, "invocation hung (Errc::Hang)");
            if (a.faultsFired == 0)
                fail(sc.name, seed, "no fault fired");

            const bool isCrash =
                std::strcmp(sc.name, "dpu-crash-restart") == 0;
            const bool isFpga =
                std::strcmp(sc.name, "fpga-reconfig-fail") == 0;
            const bool isOom = std::strcmp(sc.name, "oom-kill") == 0;
            if (isCrash) {
                if (!a.sawBackoffSpan)
                    fail(sc.name, seed, "no retry.backoff span");
                if (!a.failedOver)
                    fail(sc.name, seed, "no invocation failed over");
                if (!a.sawRecoverySpan || a.resyncs == 0 ||
                    a.rewarms == 0)
                    fail(sc.name, seed,
                         "recovery resync/rewarm missing");
            }
            if (isFpga && a.retries == 0)
                fail(sc.name, seed, "fpga retry did not happen");
            if ((isFpga || isOom) && a.typedErrors != 0)
                fail(sc.name, seed,
                     "retries should have absorbed every fault");
            if (isOom && a.oomKilled == 0)
                fail(sc.name, seed, "oom fault killed nothing");
        }
    }
    table.print();

    if (!strict)
        return 0;
    if (pass)
        std::printf("\nOK: chaos suite clean — deterministic digests, "
                    "zero hangs, recovery observed\n");
    else
        std::printf("\nFAIL: chaos suite found problems (see stderr)\n");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool strict = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--strict") {
            strict = true;
        } else {
            std::fprintf(stderr, "usage: chaos_report [--strict]\n");
            return 2;
        }
    }
    return report(strict);
}
