/**
 * @file
 * Placement: profile selection and chain affinity (§4.1, §5).
 *
 * Users give each function a set of PU-kind profiles with prices; the
 * control plane picks a concrete PU per request. The pick itself is
 * delegated to a swappable PlacementPolicy (see placement.hh): the
 * scheduler owns what policies may *see* — it snapshots per-PU price,
 * free memory, in-flight work, warm-sandbox presence, link state and
 * capability epochs into a PlacementView — and what they may *decide*
 * (one PU id per request). The default PriceOrderedPolicy reproduces
 * the paper's §5 heuristic bit for bit.
 */

#ifndef MOLECULE_CORE_SCHEDULER_HH
#define MOLECULE_CORE_SCHEDULER_HH

#include <span>

#include "core/dag.hh"
#include "core/deployment.hh"
#include "core/function.hh"
#include "core/placement.hh"
#include "core/status.hh"
#include "sim/analysis.hh"
#include "sim/stats.hh"

namespace molecule::core {

class StartupManager;

/**
 * Placement authority over one deployment: builds the view, delegates
 * the pick, keeps the in-flight accounting policies decide on.
 */
class Scheduler
{
  public:
    Scheduler(Deployment &dep, const FunctionRegistry &registry)
        : dep_(dep), registry_(registry),
          policy_(std::make_unique<PriceOrderedPolicy>())
    {}

    /**
     * Pick a PU for a single invocation of @p fn by the installed
     * policy. PUs in @p exclude (failed attempts of this invocation)
     * and crashed PUs are never offered — failover placement moves the
     * retry to another allowed PU.
     * @return PU id, or -1 when no PU can admit the function.
     */
    int place(const FunctionDef &fn, std::span<const int> exclude = {});

    /** Admit one invocation: @p requestedPu (-1: none) unless it is
     * in @p exclude, else place(). PuCrashed for an explicit down PU,
     * NoCapacity when nothing fits. */
    [[nodiscard]] Expected<int>
    admit(const FunctionDef &fn, int requestedPu,
          std::span<const int> exclude = {});

    /** Snapshot the decision inputs for @p fn (also used by tests to
     * audit exactly what a policy saw). */
    PlacementView view(const FunctionDef &fn,
                       std::span<const int> exclude = {}) const;

    /**
     * Place a whole chain: all nodes on one PU when a single PU allows
     * every function (chain affinity); otherwise each node falls back
     * to per-function placement.
     */
    std::vector<int> placeChain(const ChainSpec &spec);

    /** Free memory on @p pu minus a safety margin (bytes). */
    std::uint64_t admissibleBytes(int pu) const;

    /** @name Policy installation */
    ///@{

    /** Swap the placement policy (null resets to the default). The
     * default PriceOrderedPolicy is digest-identical to the paper's
     * hard-coded heuristic. */
    void installPlacement(std::unique_ptr<PlacementPolicy> policy);

    PlacementPolicy &placement() { return *policy_; }

    const PlacementPolicy &placement() const { return *policy_; }
    ///@}

    /** @name In-flight accounting (fed by the invoke pipeline) */
    ///@{

    /** An invocation was placed on @p pu and is now in flight. */
    void noteDispatch(int pu);

    /** The invocation on @p pu finished (completed or failed). */
    void noteComplete(int pu);

    /** Invocations currently in flight on @p pu. */
    int outstanding(int pu) const;
    ///@}

    /** Placement decisions taken so far (diagnostics). */
    std::int64_t decisionCount() const { return decisions_.peek(); }

    /**
     * Order-sensitive digest of every placement decision (function
     * hash, picked PU): bit-identical across replays of the same
     * scenario — the per-policy golden the determinism suite pins.
     */
    std::uint64_t placementDigest() const { return placeFp_.digest(); }

    /** Warm-pool source for PuView::warmSandboxes (wired by the
     * Molecule; null leaves warm counts at zero). */
    void setStartupManager(const StartupManager *startup)
    {
        startup_ = startup;
    }

  private:
    /** A function's candidate rows (static fields only), their
     * price order and the name hash folded into the placement
     * digest. */
    struct FnRows
    {
        /** FunctionRegistry::revision built from (0: never). */
        std::uint32_t revision = 0;
        std::uint64_t nameHash = 0;
        std::vector<PuView> rows;
        std::vector<std::uint16_t> priceOrder;
    };

    /** The cached rows of @p fn, rebuilt after a re-registration. */
    const FnRows &rowsOf(const FunctionDef &fn) const;

    Deployment &dep_;
    const FunctionRegistry &registry_;
    const StartupManager *startup_ = nullptr;
    std::unique_ptr<PlacementPolicy> policy_;
    /** rows_[fnId]; grown on demand. */
    mutable std::vector<FnRows> rows_;
    /** outstanding_[pu]; grown on demand. */
    std::vector<int> outstanding_;
    sim::Fingerprint placeFp_;
    /** Each decision consumes admission headroom other same-tick
     * decisions also saw: ordering is pure event tie-break, so the
     * cell is written per decision to make such pairs visible. */
    mutable sim::analysis::Tracked<std::int64_t> decisions_{
        0, "core.placement"};
};

} // namespace molecule::core

#endif // MOLECULE_CORE_SCHEDULER_HH
