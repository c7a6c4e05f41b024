/**
 * @file
 * Serializable open-loop workload descriptions.
 *
 * A TraceSpec is a *value*: everything the open-loop generator needs
 * to reproduce an invocation stream bit for bit — arrival process,
 * function catalog, popularity skew, tenant mix and the seed. Specs
 * serialize to a line-oriented text form that parses back exactly
 * (the same contract as fault::InjectionPlan), so a trace referenced
 * in a bug report or pinned in CI is one short string, never a file
 * of a million timestamps.
 *
 * Determinism rules (DESIGN.md §8):
 *  - The generator owns its RNG, seeded from the spec at construction.
 *    It never draws from a Simulation's RNG, so attaching a stream to
 *    a model changes nothing about the model's own random sequence.
 *  - The stream is a pure function of the spec: same spec => same
 *    arrivals, on any thread, serial or under sim::SweepRunner.
 *  - Arrival instants are generated in nanosecond sim time, never
 *    from wall clocks.
 */

#ifndef MOLECULE_LOAD_SPEC_HH
#define MOLECULE_LOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hh"
#include "sim/time.hh"

namespace molecule::load {

/** Arrival-process families of the generator. */
enum class ArrivalKind : std::uint8_t {
    /** Homogeneous Poisson at `ratePerSecond`. */
    Poisson,
    /**
     * Two-state Markov-modulated Poisson process: a base state at
     * `ratePerSecond` and a burst state at `ratePerSecond *
     * burstFactor`, with exponentially distributed dwell times
     * (`meanDwellBase` / `meanDwellBurst`). Models flash crowds.
     */
    Mmpp,
    /**
     * Poisson with a sinusoidally modulated rate:
     * lambda(t) = ratePerSecond * (1 + diurnalAmplitude *
     * sin(2*pi*t / diurnalPeriod)). Models day/night traffic with the
     * "day" compressed to `diurnalPeriod` of sim time.
     */
    Diurnal,
};

const char *toString(ArrivalKind k);

/** One tenant of a multi-tenant mix. */
struct TenantSpec
{
    std::string name;
    /** Relative traffic share (normalized across tenants). */
    double share = 1.0;
    /** Zipf popularity exponent over the catalog (0 = uniform). */
    double zipfExponent = 1.1;
    /**
     * Salt for the tenant's private popularity ranking: two tenants
     * with different salts rank the shared catalog differently, so
     * "hot" functions differ per tenant (warm-affinity dispatch has
     * something to exploit).
     */
    std::uint64_t permuteSalt = 0;

    bool operator==(const TenantSpec &) const = default;
};

/**
 * A deterministic, serializable open-loop workload description.
 */
struct TraceSpec
{
    /** Seeds the generator-owned RNG. */
    std::uint64_t seed = 42;
    /** Stream horizon: arrivals occupy [0, duration). */
    sim::SimTime duration = sim::SimTime::seconds(60);
    /** Mean (base-state) arrival rate, invocations per second. */
    double ratePerSecond = 100.0;
    ArrivalKind arrival = ArrivalKind::Poisson;

    /** @name MMPP parameters (ArrivalKind::Mmpp) */
    ///@{
    double burstFactor = 8.0;
    sim::SimTime meanDwellBase = sim::SimTime::seconds(5);
    sim::SimTime meanDwellBurst = sim::SimTime::seconds(1);
    ///@}

    /** @name Diurnal parameters (ArrivalKind::Diurnal) */
    ///@{
    /** Modulation depth in [0, 1). */
    double diurnalAmplitude = 0.5;
    sim::SimTime diurnalPeriod = sim::SimTime::seconds(60);
    ///@}

    /** Function catalog the stream draws from (names are opaque). */
    std::vector<std::string> functions;
    /** Tenant mix; empty means one implicit tenant (share 1, Zipf
     * exponent 1.1, salt 0). */
    std::vector<TenantSpec> tenants;

    /** Expected arrival count (rate x duration; MMPP counts the
     * time-weighted burst uplift). Sizing hint, not a promise. */
    double expectedArrivals() const;

    /** Tenant labels the stream emits: [0, tenantCount()). The empty
     * mix still counts its one implicit tenant. */
    std::uint32_t tenantCount() const
    {
        return tenants.empty() ? 1u : std::uint32_t(tenants.size());
    }

    /**
     * Line-oriented text form, round-trippable through parse():
     *   trace-spec v1 seed=<n> rate=<f> arrival=<kind> dur=<ns>
     *         burst=<f> dwell-base=<ns> dwell-burst=<ns>
     *         diurnal-amp=<f> diurnal-period=<ns>
     *   fn name=<s>
     *   tenant name=<s> share=<f> zipf=<f> salt=<n>
     */
    std::string serialize() const;

    [[nodiscard]] static core::Expected<TraceSpec>
    parse(const std::string &text);

    bool operator==(const TraceSpec &) const = default;
};

} // namespace molecule::load

#endif // MOLECULE_LOAD_SPEC_HH
