/**
 * @file
 * Placement policies: swappable strategies behind the scheduler.
 *
 * The scheduler no longer hard-codes one heuristic; it builds a
 * PlacementView — a per-PU snapshot of price, free memory, in-flight
 * work, warm-sandbox presence and health — and delegates the pick to
 * an installed PlacementPolicy. Policies must be pure functions of the
 * request, the view and their own deterministic state (no wall clock,
 * no global RNG), so every placement run stays bit-for-bit replayable
 * serial vs SweepRunner.
 *
 * Three strategies ship:
 *
 *  - price-ordered  : the paper's §5 heuristic (cheapest allowed kind
 *                     with free memory, PUs in id order). This is the
 *                     default and reproduces the pre-policy-layer
 *                     golden digests bit for bit.
 *  - load-aware     : price-ordered until a kind saturates (in-flight
 *                     work >= spillThreshold x cores), then spills to
 *                     the next-cheapest kind — host CPUs absorb DPU
 *                     overload instead of queueing behind 8 ARM cores
 *                     (the DPU-bound ~480 inv/s ceiling of ROADMAP
 *                     item 1).
 *  - locality       : FDN-style affinity — prefer the PU already
 *                     holding warm sandboxes of the function (cfork
 *                     pools, keep-alive entries) unless it is badly
 *                     overloaded; falls back to load-aware spill.
 */

#ifndef MOLECULE_CORE_PLACEMENT_HH
#define MOLECULE_CORE_PLACEMENT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/function.hh"
#include "hw/pu.hh"

namespace molecule::core {

/** One placement request (a single invocation to be admitted). */
struct PlacementRequest
{
    const FunctionDef *fn = nullptr;
    /** PUs earlier attempts of this invocation failed on. */
    std::span<const int> exclude = {};
};

/** Per-PU snapshot a policy decides over. */
struct PuView
{
    int pu = -1;
    hw::PuType kind = hw::PuType::HostCpu;
    /** Price of the function's profile for this PU's kind. */
    double price = 0.0;
    /** Registration order of that profile (stable price ties). */
    std::uint32_t profileRank = 0;
    int cores = 1;
    /** Invocations currently in flight on this PU (scheduler-tracked
     * dispatch/complete deltas). */
    int outstanding = 0;
    /** Warm keep-alive entries of the requested function on this PU. */
    std::size_t warmSandboxes = 0;
    /** Free memory minus the safety margin, bytes. */
    std::uint64_t freeBytes = 0;
    /** Fresh-instance footprint of the requested function, bytes. */
    std::uint64_t needBytes = 0;
    /** Crashed (fault state) — never placeable. */
    bool down = false;
    /** Listed in PlacementRequest::exclude — never placeable. */
    bool excluded = false;
    /** The manager->PU link is inside a degradation window. */
    bool linkDegraded = false;
    /** Capability epoch of the PU's shim (stale after recovery). */
    std::uint64_t capabilityEpoch = 0;

    /** Health + memory admission in one test. */
    bool
    eligible() const
    {
        return !down && !excluded && freeBytes >= needBytes;
    }

    /** In-flight work normalized by core count. */
    double
    loadPerCore() const
    {
        return double(outstanding) / double(cores > 0 ? cores : 1);
    }
};

class Scheduler;

/**
 * The scheduler-built snapshot: one PuView per PU the function's
 * profiles allow, ascending PU id, plus the rows' price order. Views
 * are constructed fresh per request -- policies must not retain
 * pointers into one. A view of up to kInline PUs (every testbed
 * computer) lives inline, so building one does not allocate.
 */
class PlacementView
{
  public:
    static constexpr std::size_t kInline = 8;

    /** A view over @p pus (ascending PU id); sorts the price order. */
    explicit PlacementView(std::vector<PuView> pus);

    std::span<const PuView> pus() const
    {
        return n_ <= kInline ? std::span<const PuView>(inline_.rows, n_)
                             : std::span<const PuView>(heap_);
    }

    bool empty() const { return n_ == 0; }

    std::size_t size() const { return n_; }

    /**
     * The @p i-th row in price order: cheapest profile first
     * (registration order breaks price ties), then ascending PU id.
     */
    const PuView &
    byPrice(std::size_t i) const
    {
        return pus()[order()[i]];
    }

  private:
    friend class Scheduler;

    /**
     * Write the price order of @p rows into @p order (as many slots)
     * as row indices. It reads only price, profileRank and pu -- a
     * function's static fields -- so the scheduler computes it once
     * per function.
     */
    static void priceOrder(std::span<const PuView> rows,
                           std::span<std::uint16_t> order);

    /** A copy of @p rows and their precomputed @p order. */
    PlacementView(std::span<const PuView> rows,
                  std::span<const std::uint16_t> order);

    std::span<PuView>
    rows()
    {
        return n_ <= kInline ? std::span<PuView>(inline_.rows, n_)
                             : std::span<PuView>(heap_);
    }

    std::span<const std::uint16_t>
    order() const
    {
        return n_ <= kInline
                   ? std::span<const std::uint16_t>(inlineOrder_.data(), n_)
                   : std::span<const std::uint16_t>(heapOrder_);
    }

    std::span<std::uint16_t>
    order()
    {
        return n_ <= kInline
                   ? std::span<std::uint16_t>(inlineOrder_.data(), n_)
                   : std::span<std::uint16_t>(heapOrder_);
    }

    std::size_t n_ = 0;
    /** Raw storage: only the first n_ rows are ever written, so a
     * view does not construct kInline rows per request. PuView is
     * trivially copyable, so copying the whole union copies a view. */
    union InlineRows
    {
        InlineRows() {}
        PuView rows[kInline];
    } inline_;
    static_assert(std::is_trivially_copyable_v<PuView>);
    std::array<std::uint16_t, kInline> inlineOrder_{};
    /** Rows and order of a view wider than kInline. */
    std::vector<PuView> heap_;
    std::vector<std::uint16_t> heapOrder_;
};

/**
 * Node-local placement seam. Implementations must be deterministic:
 * identical (request, view, own-state) sequences must yield identical
 * picks — the policy determinism suite pins this serial vs
 * SweepRunner.
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Pick a PU for @p req over @p view.
     * @return PU id, or -1 when no PU can admit the function.
     */
    virtual int place(const PlacementRequest &req,
                      const PlacementView &view) = 0;

    /** Dispatch feedback (optional; default ignores it). */
    virtual void
    onDispatch(int pu)
    {
        (void)pu;
    }

    /** Completion feedback (optional; default ignores it). */
    virtual void
    onComplete(int pu)
    {
        (void)pu;
    }
};

/**
 * The paper's §5 heuristic, verbatim: profiles by ascending price
 * (registration order breaks ties), PUs of each kind in id order,
 * first with enough free memory wins. Ignores load on purpose — this
 * is the golden-digest-compatible default.
 */
class PriceOrderedPolicy final : public PlacementPolicy
{
  public:
    const char *name() const override { return "price-ordered"; }

    int place(const PlacementRequest &req,
              const PlacementView &view) override;
};

/**
 * Least-cost with saturation spill: prefer the cheapest kind while
 * any of its PUs has in-flight work below spillThreshold x cores;
 * once a kind saturates, spill to the next-cheapest kind instead of
 * queueing. Within a kind the least-loaded PU (per core) wins, lowest
 * id ties. When every kind is saturated, the globally least-loaded
 * eligible PU absorbs the overflow.
 */
class LoadAwarePolicy final : public PlacementPolicy
{
  public:
    struct Options
    {
        /** In-flight invocations per core at which a PU counts as
         * saturated (1.0 = one invocation per core). */
        double spillThreshold = 1.0;
    };

    LoadAwarePolicy() = default;

    explicit LoadAwarePolicy(const Options &options) : opts_(options)
    {}

    const char *name() const override { return "load-aware"; }

    int place(const PlacementRequest &req,
              const PlacementView &view) override;

  private:
    Options opts_;
};

/**
 * FDN-style locality: place where the function's state already is.
 * Among eligible PUs holding warm sandboxes of the function the most
 * warm entries win (price, then lowest id, break ties); a warm PU is
 * skipped only when its load passes loadBarrier x cores. With no warm
 * candidate the pick falls back to load-aware spill, so the first
 * request of a function seeds the cheapest kind and later ones stick.
 */
class LocalityAffinityPolicy final : public PlacementPolicy
{
  public:
    struct Options
    {
        /** Load (per core) beyond which warm affinity is abandoned. */
        double loadBarrier = 2.0;
        /** Spill threshold of the load-aware fallback. */
        double spillThreshold = 1.0;
    };

    LocalityAffinityPolicy() = default;

    explicit LocalityAffinityPolicy(const Options &options)
        : opts_(options),
          fallback_(LoadAwarePolicy::Options{options.spillThreshold})
    {}

    const char *name() const override { return "locality"; }

    int place(const PlacementRequest &req,
              const PlacementView &view) override;

  private:
    Options opts_;
    LoadAwarePolicy fallback_;
};

/**
 * Value-semantic policy selection, safe to copy into per-node
 * MoleculeOptions (cluster::FleetSpec stamps one options template on
 * every node; each node must get its *own* stateful policy instance).
 */
struct PlacementConfig
{
    enum class Kind : std::uint8_t { PriceOrdered, LoadAware, Locality };

    Kind kind = Kind::PriceOrdered;
    /** LoadAware / Locality: saturation spill threshold. */
    double spillThreshold = 1.0;
    /** Locality: per-core load beyond which affinity is abandoned. */
    double loadBarrier = 2.0;

    /** Build a fresh policy instance for one scheduler. */
    std::unique_ptr<PlacementPolicy> make() const;

    static PlacementConfig
    priceOrdered()
    {
        return {};
    }

    static PlacementConfig
    loadAware(double spillThreshold = 1.0)
    {
        PlacementConfig c;
        c.kind = Kind::LoadAware;
        c.spillThreshold = spillThreshold;
        return c;
    }

    static PlacementConfig
    locality(double loadBarrier = 2.0, double spillThreshold = 1.0)
    {
        PlacementConfig c;
        c.kind = Kind::Locality;
        c.loadBarrier = loadBarrier;
        c.spillThreshold = spillThreshold;
        return c;
    }
};

const char *toString(PlacementConfig::Kind kind);

} // namespace molecule::core

#endif // MOLECULE_CORE_PLACEMENT_HH
