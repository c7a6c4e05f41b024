/**
 * @file
 * Measurement records produced by the Molecule runtime.
 *
 * Moved here from core/metrics.hh: records are observability data, so
 * they live with the tracing/metrics subsystem. Each record now
 * carries the trace id of the invocation that produced it (0 when no
 * tracer was attached), linking coarse latency records to their full
 * span trees.
 */

#ifndef MOLECULE_OBS_RECORDS_HH
#define MOLECULE_OBS_RECORDS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace molecule::obs {

/**
 * Inline list of PU ids: the per-attempt trail of one invocation.
 *
 * An InvocationRecord is built on the invoke hot path, and the trail
 * is bounded by the retry budget (single digits in every config), so
 * a heap-backed vector per record is pure overhead. Capacity is fixed
 * at 16; ids past that are counted, not stored (truncated()), which
 * keeps the type trivially copyable.
 */
class PuList
{
  public:
    static constexpr std::size_t kCapacity = 16;

    PuList() = default;

    void
    push_back(int pu)
    {
        if (n_ < kCapacity)
            pus_[n_++] = pu;
        else
            ++overflow_;
    }

    std::size_t size() const { return n_; }

    bool empty() const { return n_ == 0; }

    int operator[](std::size_t i) const { return pus_[i]; }

    int front() const { return pus_[0]; }

    int back() const { return pus_[n_ - 1]; }

    const int *begin() const { return pus_; }

    const int *end() const { return pus_ + n_; }

    bool
    contains(int pu) const
    {
        for (std::size_t i = 0; i < n_; ++i)
            if (pus_[i] == pu)
                return true;
        return false;
    }

    /** Ids dropped because the trail overflowed kCapacity. */
    std::uint32_t truncated() const { return overflow_; }

    /** View for APIs taking a span of PU ids. */
    std::span<const int> view() const { return {pus_, n_}; }

    /** Copy-out for error annotations and reports. */
    std::vector<int> toVector() const { return {begin(), end()}; }

  private:
    int pus_[kCapacity] = {};
    std::uint32_t n_ = 0;
    std::uint32_t overflow_ = 0;
};

/** Timing breakdown of one function invocation. */
struct InvocationRecord
{
    /** Views the registry-owned FunctionDef's name (or the cached
     * chain plan's node name), which outlives the runtime's records. */
    std::string_view function;
    /** PU (or accelerator host PU) the instance ran on. */
    int pu = -1;
    bool coldStart = false;
    /** Sandbox acquisition (zero on a warm hit). */
    sim::SimTime startup;
    /** Request delivery into the instance. */
    sim::SimTime communication;
    /** Function body execution. */
    sim::SimTime execution;
    /** startup + communication + execution. */
    sim::SimTime endToEnd;
    /** Trace of this invocation (0: tracing off). */
    std::uint64_t traceId = 0;
    /** Attempts taken to complete (1: no retry). */
    int attempts = 1;
    /** Every PU an attempt ran on, in attempt order (inline, no
     * allocation; see PuList). */
    PuList pusTried;
    /** True when the completing attempt ran on a different PU than
     * the first one (scheduler failover after a fault). */
    bool failedOver = false;
};

/** Timing of one DAG/chain execution. */
struct ChainRecord
{
    std::string chain;
    sim::SimTime endToEnd;
    /** Inter-function latency per edge, in chain-edge order. */
    std::vector<sim::SimTime> edgeLatencies;
    std::vector<InvocationRecord> invocations;
    /** Trace of this chain execution (0: tracing off). */
    std::uint64_t traceId = 0;
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_RECORDS_HH
