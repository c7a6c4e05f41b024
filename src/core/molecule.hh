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
 *   auto record = runtime.invokeSync("helloworld");
 *   if (record.ok())
 *       use(record.value().endToEnd);
 * @endcode
 */

#ifndef MOLECULE_CORE_MOLECULE_HH
#define MOLECULE_CORE_MOLECULE_HH

#include <memory>
#include <optional>

#include "core/dag.hh"
#include "core/gateway.hh"
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

/** Per-invocation resilience knobs (§ fault injection & recovery). */
struct InvokeOptions
{
    /** Explicit placement; -1 lets the scheduler pick. */
    int pu = -1;
    /**
     * End-to-end sim-time budget enforced at admission and between
     * phases; zero disables. Exceeding it returns DeadlineExceeded
     * (never retried — the budget is already gone).
     */
    sim::SimTime deadline{};
    /** Total attempts (1 = no retry). */
    int maxAttempts = 1;
    /** Sim-time pause before each retry attempt. */
    sim::SimTime retryBackoff = sim::SimTime::milliseconds(5);
    /** Allow retries to fail over to another allowed PU. */
    bool failover = true;
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
    void registerFpgaFunction(const std::string &name,
                              std::uint64_t units = 1);

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

    /** @name Invocation (synchronous helpers run the simulation) */
    ///@{

    /**
     * One invocation with full resilience control. Retries run the
     * whole admission/startup/comm/exec pipeline again after
     * @ref InvokeOptions::retryBackoff; with failover enabled the
     * retry excludes every PU a previous attempt failed on. On
     * exhaustion the RetriesExhausted error carries the last cause,
     * the retry count and the PUs tried. @p fn must be a definition
     * held by registry().
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const FunctionDef &fn, const InvokeOptions &opts);

    /** invoke() by name: one registry lookup, NotFound when unknown. */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const std::string &fn, const InvokeOptions &opts);

    /** One invocation; @p pu -1 lets the scheduler pick. */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invoke(const std::string &fn, int pu = -1);

    /**
     * Run the simulation until @ref invoke completes. If the
     * simulation drains while the invocation is still pending (a hang
     * — some fault left it blocked forever), returns Errc::Hang.
     */
    [[nodiscard]] Expected<obs::InvocationRecord>
    invokeSync(const std::string &fn, const InvokeOptions &opts);

    [[nodiscard]] Expected<obs::InvocationRecord>
    invokeSync(const std::string &fn, int pu = -1);

    /**
     * One FPGA invocation with @p units of input. Injected
     * reconfiguration failures surface as FpgaReconfigFailed; retries
     * (per @p opts) re-attempt on the same card — reconfiguration
     * faults are transient and count-limited, so there is no cross-
     * card failover.
     */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeFpga(const std::string &fn, int fpgaIndex,
               std::uint64_t units, const InvokeOptions &opts);

    [[nodiscard]] Expected<obs::InvocationRecord>
    invokeFpgaSync(const std::string &fn, int fpgaIndex,
                   std::uint64_t units, const InvokeOptions &opts = {});

    /** One GPU invocation (§6.8 generality path). */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    invokeGpu(const std::string &fn, int gpuIndex);

    [[nodiscard]] Expected<obs::InvocationRecord>
    invokeGpuSync(const std::string &fn, int gpuIndex);

    /** Run a chain; empty placement lets the scheduler place it. */
    [[nodiscard]] sim::Task<Expected<obs::ChainRecord>>
    invokeChain(const ChainSpec &spec, std::vector<int> placement = {},
                bool prewarm = true);

    [[nodiscard]] Expected<obs::ChainRecord>
    invokeChainSync(const ChainSpec &spec,
                    std::vector<int> placement = {},
                    bool prewarm = true);
    ///@}

  private:
    /** Run @p task (@p what, for the Hang error) to completion. */
    template <typename T>
    Expected<T> runSync(sim::Task<Expected<T>> task,
                        const std::string &what);

    /** NotFound for an unregistered name (the by-name invoke). */
    [[nodiscard]] sim::Task<Expected<obs::InvocationRecord>>
    notFound(const std::string &fn);

    /** @name Non-suspending steps of invoke()
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

} // namespace molecule::core

#endif // MOLECULE_CORE_MOLECULE_HH
