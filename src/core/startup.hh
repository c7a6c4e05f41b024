/**
 * @file
 * Instance lifecycle: cold/warm starts, cfork templates, keep-alive
 * caching and FPGA image composition (§4.2).
 *
 * A request is served by a *warm* instance when the keep-alive cache
 * holds one; otherwise the startup manager cold-starts one — via cfork
 * from the PU's template when enabled (Molecule), or via the baseline
 * container boot (Molecule-homo). Cross-PU starts add the nIPC command
 * round-trip to the target PU's executor (launched through xSpawn at
 * bootstrap), which is the +1-3 ms of Fig 10's cfork-XPU bars.
 *
 * Keep-alive eviction order is delegated to a swappable
 * KeepAliveStrategy (see keepalive.hh): plain LRU, a FaasCache-style
 * greedy-dual priority (clock + freq x cost / size), or
 * histogram-predicted idle windows. The manager owns the pools and
 * the eviction mechanics; the strategy owns the order.
 */

#ifndef MOLECULE_CORE_STARTUP_HH
#define MOLECULE_CORE_STARTUP_HH

#include <map>
#include <optional>
#include <string>

#include "core/deployment.hh"
#include "core/function.hh"
#include "core/keepalive.hh"
#include "core/status.hh"
#include "obs/trace.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace molecule::core {

/** Startup configuration knobs. */
struct StartupOptions
{
    /** Use cfork templates (false = Molecule-homo baseline). */
    bool useCfork = true;
    sandbox::StartupPath cforkPath = sandbox::StartupPath::CforkCpusetOpt;
    /** Warm instances kept per (function, PU). */
    std::size_t warmCapacity = 64;
    /**
     * When non-zero, warm instances additionally compete for a global
     * per-PU budget across functions: the eviction policy then
     * genuinely matters (FaasCache-style greedy-dual keeps
     * expensive-to-boot functions warm over popular cheap ones).
     */
    std::size_t globalWarmCapacityPerPu = 0;
    /** Eviction-order strategy selection (see keepalive.hh). */
    KeepAliveConfig keepAlive;
    /** Pre-initialized function containers per PU at bootstrap. */
    int pooledContainersPerPu = 32;
};

/** Result of acquiring a CPU/DPU instance. */
struct AcquiredInstance
{
    sandbox::Instance *instance = nullptr;
    int pu = -1;
    bool cold = false;
    sim::SimTime startupTime;
};

/** Result of acquiring an FPGA sandbox. */
struct AcquiredFpga
{
    std::string sandboxId;
    int fpgaIndex = -1;
    bool cold = false;
    sim::SimTime startupTime;
};

/**
 * Startup manager for one deployment.
 */
class StartupManager
{
  public:
    StartupManager(Deployment &dep, const FunctionRegistry &registry,
                   StartupOptions options);

    const StartupOptions &options() const { return options_; }

    StartupOptions &options() { return options_; }

    /**
     * Launch executors on every non-manager PU (xSpawn), prepare cfork
     * templates for @p languages on every general PU and pre-warm the
     * function-container pools.
     */
    sim::Task<> bootstrap(int managerPu);

    /**
     * Get a running instance of @p fn on @p pu: warm hit from the
     * keep-alive cache, or a cold start (cfork / baseline). A start
     * issued from a different PU pays the executor command round-trip.
     * The pool lookup runs at call time and a warm hit returns a ready
     * task, so co_await the result at once.
     */
    sim::Task<AcquiredInstance> acquire(const FunctionDef &fn, int pu,
                                        int managerPu,
                                        obs::SpanContext ctx = {});

    /** Park an instance in the keep-alive cache at call time; only an
     * eviction leaves work for the co_await. */
    sim::Task<> release(const FunctionDef &fn, AcquiredInstance inst);

    /**
     * Pre-declare the hot set of FPGA functions (keep-alive decision,
     * §4.2): the next composition packs them all into one image.
     */
    void setFpgaHotSet(int fpgaIndex, std::vector<std::string> funcIds);

    /**
     * Get a dispatchable FPGA sandbox for @p fn: warm-sandbox hit,
     * cached-instance start, or a full image (re)composition. Typed
     * failures surface composition errors (NoCapacity) and injected
     * reconfiguration failures (FpgaReconfigFailed) for retry.
     */
    sim::Task<Expected<AcquiredFpga>>
    acquireFpga(const FunctionDef &fn, int fpgaIndex,
                obs::SpanContext ctx = {});

    /**
     * Get a dispatchable GPU sandbox (§6.8): GPUs keep many modules
     * resident concurrently, so a cold acquire just loads the module.
     */
    sim::Task<AcquiredFpga> acquireGpu(const FunctionDef &fn,
                                       int gpuIndex,
                                       obs::SpanContext ctx = {});

    /** @name Fault recovery (driven by core::RecoveryManager) */
    ///@{

    /** Drop every warm-pool entry on @p pu (its instances died). */
    void purgePu(int pu);

    /** Drop the warm pool of (@p fn, @p pu) after an OOM kill. */
    void purgeFunction(const std::string &fn, int pu);

    /**
     * Re-warm a restarted PU: re-prepare the cfork templates and the
     * pre-initialized container pool that the reboot destroyed.
     */
    sim::Task<> rewarmPu(int pu, obs::SpanContext ctx = {});
    ///@}

    /** Warm-pool depth for (fn, pu). */
    std::size_t warmCount(const std::string &fn, int pu) const;
    std::size_t warmCount(FnId fn, int pu) const;

    /** Total cold starts performed (stats). */
    std::int64_t coldStarts() const { return coldStarts_; }

    /** Total warm hits served (stats). */
    std::int64_t warmHits() const { return warmHits_; }

    /** @name Keep-alive strategy */
    ///@{

    /** Swap the eviction strategy (null resets to the configured
     * KeepAliveConfig). Swapping mid-run is allowed; entries keep
     * their stamped park priorities. */
    void installKeepAlive(std::unique_ptr<KeepAliveStrategy> strategy);

    KeepAliveStrategy &keepAlive() { return *strategy_; }

    const KeepAliveStrategy &keepAlive() const { return *strategy_; }

    /** Keep-alive evictions performed so far. */
    std::int64_t evictions() const { return evictions_; }

    /**
     * Order-sensitive digest of every eviction (sandbox id, PU,
     * ordinal): bit-identical across replays of the same scenario —
     * the per-strategy golden the determinism suite pins.
     */
    std::uint64_t evictionDigest() const { return evictFp_.digest(); }
    ///@}

  private:
    struct WarmEntry
    {
        /** Lives until the eviction that removes this entry. */
        sandbox::Instance *instance = nullptr;
        sim::SimTime lastUsed;
        std::int64_t freq = 1;
        /** Cold-start cost estimate in ms (greedy-dual numerator). */
        double costMs = 1.0;
        /** Memory size in MB (greedy-dual denominator). */
        double sizeMb = 1.0;
        /** Strategy priority stamped at park time. */
        double parkPriority = 0.0;
    };

    /** Everything kept per (function, PU). */
    struct Slot
    {
        sim::detail::Ring<WarmEntry> pool;
        /** Invocation frequency (greedy-dual). */
        std::int64_t freq = 0;
        /** Last measured cold-start cost, ms; < 0 until one ran. */
        double knownColdMs = -1.0;
    };

    /** Slot of (@p fn, @p pu), created on first use. References stay
     * valid for the manager's lifetime, across suspensions. */
    Slot &slot(FnId fn, int pu);

    /** Slot of (@p fn, @p pu), or null before @p fn's first use. */
    const Slot *findSlot(FnId fn, int pu) const;

    /** cfork templates and the container pool of @p pu. */
    sim::Task<> prepareTemplates(int pu);

    /** The cold half of acquire(), in one frame: the executor command
     * round-trip for a remote target, then runc's create and start of
     * a new instance (cfork or baseline boot). */
    sim::Task<AcquiredInstance> coldStart(const FunctionDef &fn, int pu,
                                          int managerPu,
                                          obs::SpanContext ctx);

    /** The row of the next "name#N" instance of @p fn on @p pu. */
    sandbox::Instance *addInstance(const FunctionDef &fn, int pu);

    /** Evict until the pool of (@p fn, @p pu) fits the capacity, then
     * until @p pu fits the global budget, in one frame. */
    sim::Task<> evictIfNeeded(FnId fn, int pu);

    /** Take the lowest-scored entry of (@p fn, @p pu)'s pool while the
     * pool is over capacity; null once it fits. */
    sandbox::Instance *evictLocal(FnId fn, int pu, sim::SimTime now);

    /** Take the lowest-scored entry across @p pu's pools while the PU
     * is over the global budget; null once it fits. */
    sandbox::Instance *evictGlobal(int pu, sim::SimTime now);

    /** Take entry @p i of (@p fn, @p pu)'s pool and record the
     * eviction. */
    sandbox::Instance *takeVictim(FnId fn, int pu, std::size_t i);

    /** Strategy view of one parked entry. */
    WarmEntryView entryView(FnId fn, int pu, const WarmEntry &entry) const;

    /** Record one eviction (digest + counters + strategy feedback). */
    void noteEviction(FnId fn, int pu, const WarmEntry &victim);

    Deployment &dep_;
    const FunctionRegistry &registry_;
    StartupOptions options_;
    std::unique_ptr<KeepAliveStrategy> strategy_;
    /** slots_[fn][pu]: rows of puCount_ slots, never moved. */
    std::vector<std::unique_ptr<Slot[]>> slots_;
    std::size_t puCount_;
    /** Parked entries per PU across every pool, dead ones included:
     * the global budget's count, kept exact so a release that fits
     * needs no scan. */
    std::vector<std::size_t> warmOnPu_;
    std::map<int, std::vector<std::string>> fpgaHotSets_;
    /** Deployable CUDA images synthesized per GPU function. */
    sandbox::FunctionImage *gpuImage(const FunctionDef &fn);

    std::map<std::string, std::unique_ptr<sandbox::FunctionImage>>
        gpuImages_;
    std::int64_t coldStarts_ = 0;
    std::int64_t warmHits_ = 0;
    std::int64_t evictions_ = 0;
    sim::Fingerprint evictFp_;
    std::uint64_t nextSandboxId_ = 0;
    /** Scratch for instance ids. */
    std::string idScratch_;
    bool bootstrapped_ = false;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_STARTUP_HH
