/**
 * @file
 * The Molecule serverless runtime (public API).
 *
 * Ties the whole stack together on one heterogeneous computer: the
 * deployment (OSes, shims, sandbox runtimes), the function registry,
 * the startup manager (cfork + keep-alive), the scheduler and the DAG
 * engine. Two configuration axes reproduce the paper's baselines:
 *
 *  - Molecule        : cfork startup + IPC/nIPC DAG communication;
 *  - Molecule-homo   : cold-boot startup + Express/Flask HTTP DAG,
 *                      single-PU only (no XPU-Shim use).
 *
 * The commercial comparators of Fig 9 (AWS Lambda, OpenWhisk) are not
 * run: their startup and step latencies are calibrated constants in
 * hw/calibration.hh, which bench_fig09_commercial reads directly.
 *
 * Invocation outcomes are typed: every invoke returns
 * `core::Expected<obs::InvocationRecord>` so injected faults (PU
 * crashes, OOM kills, FPGA reconfiguration failures) surface as
 * `core::Error` chains instead of asserts — with optional
 * retry-with-backoff and failover placement per InvokeOptions.
 *
 * @code
 *   sim::Simulation s;
 *   auto computer = hw::buildCpuDpuServer(s, 2, hw::DpuGeneration::Bf1);
 *   core::Molecule runtime(*computer, core::MoleculeOptions{});
 *   runtime.registerCpuFunction("helloworld",
 *                               {hw::PuType::HostCpu, hw::PuType::Dpu});
 *   runtime.start();
 *   auto record = runtime.runSync(runtime.invoke("helloworld"));
 *   if (record.ok())
 *       use(record.value().endToEnd);
 * @endcode
 */

#ifndef MOLECULE_CORE_MOLECULE_HH
#define MOLECULE_CORE_MOLECULE_HH

#include <memory>
#include <optional>

#include "core/dag.hh"
#include "core/recovery.hh"
#include "core/scheduler.hh"
#include "core/startup.hh"
#include "core/status.hh"
#include "fault/state.hh"
#include "obs/trace.hh"
#include "workloads/catalog.hh"

namespace molecule::core {

/** Top-level configuration. */
struct MoleculeOptions
{
    StartupOptions startup;
    /** Placement strategy selection (see placement.hh). */
    PlacementConfig placement;
    DagCommMode dagMode = DagCommMode::MoleculeIpc;
    /** PU hosting the Molecule runtime process (Figure 6). */
    int managerPu = 0;
    /**
     * Span collector for this runtime's invocations (obs subsystem).
     * Null (the default) disables tracing with zero model impact.
     * Must outlive the Molecule and belong to the same Simulation.
     */
    obs::Tracer *tracer = nullptr;
    /**
     * Shared fault state driven by a fault::Injector. Null (the
     * default) runs fault-free with zero model impact; when set, the
     * runtime registers its RecoveryManager as a listener and every
     * layer consults the state (down PUs, degraded links, armed
     * reconfiguration failures). Must outlive the Molecule.
     */
    fault::FaultState *faults = nullptr;

    /** The homogeneous baseline configuration of §6. */
    static MoleculeOptions
    homo()
    {
        MoleculeOptions o;
        o.startup.useCfork = false;
        o.dagMode = DagCommMode::BaselineHttp;
        return o;
    }
};

/**
 * Per-invocation knobs: placement, input size and resilience
 * (§ fault injection & recovery). The two ints lead so the struct
 * packs into 32 bytes: invoke coroutines copy it into their frame.
 */
struct InvokeOptions
{
    /**
     * Explicit placement of a CPU/DPU function; -1 lets the scheduler
     * pick. Accelerator functions always run on card 0.
     */
    int pu = -1;
    /** Total attempts (1 = no retry). */
    int maxAttempts = 1;
    /**
     * End-to-end sim-time budget enforced at admission and between
     * phases; zero disables. Exceeding it returns DeadlineExceeded
     * (never retried — the budget is already gone).
     */
    sim::SimTime deadline{};
    /**
     * Allow retries to fail over to another allowed PU. Accelerator
     * retries always re-attempt on the same card: reconfiguration
     * faults are transient and count-limited.
     */
    bool failover = true;
    /** FPGA input size (bytes or entries) of this invocation; other
     * functions ignore it. */
    std::uint64_t units = 1;
};

/**
 * One Molecule worker runtime.
 */
class Molecule
{
  public:
    Molecule(hw::Computer &computer, MoleculeOptions options);

    ~Molecule();

    /** @name Sub-systems */
    ///@{
    Deployment &deployment() { return *dep_; }

    FunctionRegistry &registry() { return registry_; }

    StartupManager &startup() { return *startup_; }

    Scheduler &scheduler() { return *scheduler_; }

    DagEngine &dag() { return *dag_; }

    workloads::Catalog &catalog() { return catalog_; }

    sim::Simulation &simulation() { return computer_.simulation(); }

    const MoleculeOptions &options() const { return options_; }

    /** Recovery listener; null when no fault state is attached. */
    RecoveryManager *recovery() { return recovery_.get(); }
    ///@}

    /** @name Function registration */
    ///@{

    /**
     * Register a CPU/DPU function from the workload catalog under its
     * catalog name, allowed on @p kinds (DPU cheaper than CPU).
     */
    void registerCpuFunction(const std::string &name,
                             const std::vector<hw::PuType> &kinds);

    /** Register an FPGA function from the catalog. */
    void registerFpgaFunction(const std::string &name);

    /** Register a GPU (CUDA) function with a kernel-time model. */
    void registerGpuFunction(const std::string &name,
                             sim::SimTime kernelTime,
                             std::uint64_t ioBytes = 1 << 20);
    ///@}

    /**
     * Boot the platform: executors on every PU (xSpawn), cfork
     * templates, container pools. Runs the simulation to completion.
     */
    void start();

    /** @name Invocation */
    ///@{

    /**
     * One invocation of a function held by registry(), on whichever
     * target its definition names: a CPU/DPU instance (cpuWork), the
     * FPGA of card 0 (fpgaWork) or the GPU of card 0 (a kernel time).
     * Retries run the whole attempt again after a 5 ms sim-time
     * backoff; with failover enabled a CPU/DPU retry excludes every PU
     * a previous attempt failed on. On
     * exhaustion the RetriesExhausted error carries the last cause,
     * the retry count and the PUs tried. The task copies @p opts when
     * it starts, so a temporary may be passed in the full expression
     * that awaits or runs it.
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const FunctionDef &fn, const InvokeOptions &opts);

    /** invoke() by name: one registry lookup, NotFound when unknown. */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const std::string &fn, const InvokeOptions &opts = {});

    /** Run a chain; empty placement lets the scheduler place it. */
    [[nodiscard]] sim::Task<Expected<obs::ChainRecord>>
    invokeChain(const ChainSpec &spec, std::vector<int> placement = {},
                bool prewarm = true);

    /**
     * Run the simulation until @p task completes and return its
     * outcome. If the simulation drains while the task is still
     * pending (a hang: some fault left it blocked forever), returns
     * Errc::Hang.
     */
    template <typename T>
    [[nodiscard]] Expected<T> runSync(sim::Task<Expected<T>> task);
    ///@}

  private:
    /** NotFound for an unregistered name (the by-name invoke). */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    notFound(const std::string &fn);

    /** invoke() of a CPU/DPU function. */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeCpu(const FunctionDef &fn, const InvokeOptions &opts);

    /** invoke() of an FPGA or GPU function, on card 0. */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeAccelerator(const FunctionDef &fn, const InvokeOptions &opts);

    /** @name Non-suspending steps of the invoke coroutines
     * Plain functions, so their locals stay off the coroutine frame
     * (DESIGN.md §4b). */
    ///@{

    /** Admission + placement of one attempt on the manager PU.
     * @return the target PU, or -1 with @p err set. */
    int admitAttempt(const FunctionDef &def, const InvokeOptions &opts,
                     int attempt, const obs::PuList &tried,
                     obs::SpanContext rootCtx, Error &err);

    /** The failure of one attempt on @p pu:
     * "<before>'<fn>'<after>". */
    static Error attemptError(Errc code, const char *before,
                              const FunctionDef &def, const char *after,
                              int pu);

    /** Book a failed attempt: its PU joins @p tried. @return false
     * when no retry can help (the deadline is gone). */
    bool noteFailedAttempt(const Error &err, obs::PuList &tried);

    /** Book the pause before retry @p attempt, timed by @p span. */
    sim::Simulation::DelayAwaiter retryBackoff(obs::Span &span, int attempt);

    /** The request-delivery cost inside the instance on @p pu. */
    sim::Simulation::DelayAwaiter dispatchCost(const FunctionDef &def,
                                               int pu);

    /** The record of a successful attempt. */
    static obs::InvocationRecord
    completed(const FunctionDef &def, const AcquiredInstance &acq,
              int attempt, const obs::PuList &tried,
              sim::SimTime communication, sim::SimTime execution,
              sim::SimTime endToEnd, std::uint64_t traceId);

    /** The error of an invocation whose last attempt failed with
     * @p last after @p attempts attempts. */
    Error finalError(const FunctionDef &def, const Error &last,
                     int attempts, const obs::PuList &tried);
    ///@}

    hw::Computer &computer_;
    MoleculeOptions options_;
    workloads::Catalog catalog_;
    FunctionRegistry registry_;
    std::unique_ptr<Deployment> dep_;
    std::unique_ptr<StartupManager> startup_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<DagEngine> dag_;
    std::unique_ptr<RecoveryManager> recovery_;
    bool started_ = false;
};

template <typename T>
Expected<T>
Molecule::runSync(sim::Task<Expected<T>> task)
{
    // Watchdog slot: if the simulation drains with the task still
    // pending, the Hang error is what the caller sees instead of a
    // silent garbage record.
    Expected<T> out(Error(
        Errc::Hang, "invocation did not complete before the simulation "
                    "drained"));
    auto run = [](sim::Task<Expected<T>> t,
                  Expected<T> *slot) -> sim::Task<> {
        Expected<T> r = co_await std::move(t);
        *slot = std::move(r);
    };
    simulation().spawn(run(std::move(task), &out));
    simulation().run();
    return out;
}

} // namespace molecule::core

#endif // MOLECULE_CORE_MOLECULE_HH
