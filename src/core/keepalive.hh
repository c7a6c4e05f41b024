/**
 * @file
 * Keep-alive strategies: swappable eviction behind the startup
 * manager (§5 "Keep-alive policies").
 *
 * The startup manager owns the warm pools (one ring per (function,
 * PU)) and the eviction *mechanics*; a KeepAliveStrategy owns the
 * eviction *order*. The manager scans the candidate entries and
 * evicts the one with the lowest strategy score — ties keep the
 * earliest-scanned entry, so a strategy only has to produce
 * deterministic scores to keep runs bit-for-bit replayable.
 *
 * Three strategies ship:
 *
 *  - lru         : oldest lastUsed first (the historical default);
 *  - greedy-dual : FaasCache-style priority clock + freq x cost /
 *                  size with clock aging on eviction — keeps
 *                  expensive-to-boot functions warm over popular
 *                  cheap ones;
 *  - histogram   : per-(function, PU) reuse-interval histogram
 *                  predicts an idle window; entries that outlived
 *                  their predicted window are evicted first (most
 *                  overdue first), entries still inside it fall back
 *                  to LRU order.
 */

#ifndef MOLECULE_CORE_KEEPALIVE_HH
#define MOLECULE_CORE_KEEPALIVE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/function.hh"
#include "sim/time.hh"

namespace molecule::core {

/** What a strategy sees of one parked (or parking) instance. */
struct WarmEntryView
{
    std::string_view fn;
    /** Registry id of @ref fn (kNoFn outside a startup manager). */
    FnId fnId = kNoFn;
    int pu = -1;
    sim::SimTime lastUsed;
    /** Lifetime request count of (fn, pu). */
    std::int64_t freq = 1;
    /** Cold-start cost an eviction would re-impose, ms. */
    double costMs = 1.0;
    /** Instance memory footprint, MB. */
    double sizeMb = 1.0;
    /** Value parkPriority() stamped when the entry parked. */
    double parkPriority = 0.0;
};

/**
 * Eviction-order seam. Implementations must be pure functions of
 * their inputs and their own deterministic state — no wall clock, no
 * global RNG — so keep-alive churn stays bit-for-bit replayable.
 */
class KeepAliveStrategy
{
  public:
    virtual ~KeepAliveStrategy() = default;

    virtual const char *name() const = 0;

    /** A request for (fn, pu) was observed at @p now (before the warm
     * lookup) — reuse-interval learning hooks in here. */
    virtual void
    onRequest(std::string_view fn, int pu, sim::SimTime now)
    {
        (void)fn;
        (void)pu;
        (void)now;
    }

    /** Priority stamped on @p entry as it parks (greedy-dual). */
    virtual double
    parkPriority(const WarmEntryView &entry)
    {
        (void)entry;
        return 0.0;
    }

    /**
     * Eviction score of @p entry at @p now: the lowest score across
     * the candidates is evicted first; ties keep the earliest-scanned
     * entry.
     */
    virtual double score(const WarmEntryView &entry,
                         sim::SimTime now) const = 0;

    /** @p entry was evicted (greedy-dual clock aging). */
    virtual void
    onEvict(const WarmEntryView &entry)
    {
        (void)entry;
    }
};

/** Oldest lastUsed first. */
class LruKeepAlive final : public KeepAliveStrategy
{
  public:
    const char *name() const override { return "lru"; }

    double score(const WarmEntryView &entry,
                 sim::SimTime now) const override;
};

/**
 * FaasCache greedy-dual: park priority = clock + freq x cost / size;
 * the evicted entry's priority becomes the pool's new clock (classic
 * greedy-dual aging), so long-parked entries age relative to fresh
 * ones.
 */
class GreedyDualKeepAlive final : public KeepAliveStrategy
{
  public:
    const char *name() const override { return "greedy-dual"; }

    double parkPriority(const WarmEntryView &entry) override;

    double score(const WarmEntryView &entry,
                 sim::SimTime now) const override;

    void onEvict(const WarmEntryView &entry) override;

  private:
    /** Clock of @p entry's (fnId, pu) pool, zero before any eviction;
     * views without an id (kNoFn) read zero and age nothing. */
    double &clockOf(const WarmEntryView &entry);

    /** clock_[fnId][pu]. */
    std::vector<std::vector<double>> clock_;
};

/**
 * Prediction-based idle windows: a log-bucketed histogram of observed
 * reuse intervals per (function, PU) predicts how long a parked
 * instance stays worth keeping (95th percentile x 1.25; 250 ms until
 * four intervals are seen). Entries past their window are evicted
 * first, most overdue first; entries inside it are protected and fall
 * back to LRU order among themselves.
 */
class HistogramKeepAlive final : public KeepAliveStrategy
{
  public:
    const char *name() const override { return "histogram"; }

    void onRequest(std::string_view fn, int pu,
                   sim::SimTime now) override;

    double score(const WarmEntryView &entry,
                 sim::SimTime now) const override;

    /** Predicted idle window of (fn, pu) (tests). */
    sim::SimTime window(std::string_view fn, int pu) const;

  private:
    using PoolKey = std::pair<std::string, int>;
    using PoolKeyView = std::pair<std::string_view, int>;

    /** Orders owned and borrowed (fn, pu) keys alike, so lookups by
     * string_view build no string. */
    struct PoolKeyLess
    {
        using is_transparent = void;

        static PoolKeyView
        view(const PoolKey &k)
        {
            return {k.first, k.second};
        }

        static PoolKeyView view(const PoolKeyView &k) { return k; }

        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return view(a) < view(b);
        }
    };

    /** Log2-bucketed reuse intervals (microseconds). */
    struct Intervals
    {
        std::array<std::int64_t, 48> buckets{};
        std::int64_t count = 0;
        sim::SimTime lastSeen;
        bool seen = false;
    };

    sim::SimTime windowOf(const Intervals &iv) const;

    std::map<PoolKey, Intervals, PoolKeyLess> intervals_;
};

/**
 * Value-semantic strategy selection, safe to copy into per-node
 * MoleculeOptions (cluster::FleetSpec stamps one options template on
 * every node; each node must get its *own* stateful strategy).
 */
struct KeepAliveConfig
{
    enum class Kind : std::uint8_t { Lru, GreedyDual, Histogram };

    Kind kind = Kind::Lru;

    /** Build a fresh strategy instance for one startup manager. */
    std::unique_ptr<KeepAliveStrategy> make() const;

    static KeepAliveConfig
    lru()
    {
        return {};
    }

    static KeepAliveConfig
    greedyDual()
    {
        KeepAliveConfig c;
        c.kind = Kind::GreedyDual;
        return c;
    }

    static KeepAliveConfig
    histogram()
    {
        KeepAliveConfig c;
        c.kind = Kind::Histogram;
        return c;
    }
};

const char *toString(KeepAliveConfig::Kind kind);

} // namespace molecule::core

#endif // MOLECULE_CORE_KEEPALIVE_HH
