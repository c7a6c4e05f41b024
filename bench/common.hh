/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 *
 * Every binary regenerates the rows/series of one paper table or
 * figure by running the full stack in simulation and printing a
 * Table. Absolute numbers come from the calibrated cost models; the
 * *shapes* (who wins, by what factor, where crossovers sit) emerge
 * from the implemented protocols.
 */

#ifndef MOLECULE_BENCH_COMMON_HH
#define MOLECULE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "obs/registry.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

namespace molecule::bench {

/** Print the standard header of a bench binary. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("Molecule reproduction - %s\n", what.c_str());
    std::printf("Paper reference: %s\n\n", paperRef.c_str());
}

/** Format a SimTime in the unit used by the figure. */
inline std::string
us(sim::SimTime t, int decimals = 1)
{
    return sim::Table::num(t.toMicroseconds(), decimals);
}

inline std::string
ms(sim::SimTime t, int decimals = 2)
{
    return sim::Table::num(t.toMilliseconds(), decimals);
}

inline std::string
secs(sim::SimTime t, int decimals = 2)
{
    return sim::Table::num(t.toSeconds(), decimals);
}

/**
 * Collects benchmark results and emits a machine-readable perf
 * snapshot (BENCH_simcore.json). Each entry pairs a measured value
 * with an optional recorded baseline so the snapshot itself documents
 * the speedup a perf PR claims.
 */
class PerfSnapshot
{
  public:
    explicit PerfSnapshot(std::string metric) : metric_(std::move(metric))
    {
    }

    /** Pre-register the reference value a result is judged against. */
    void
    baseline(const std::string &name, double value)
    {
        entry(name).baseline = value;
    }

    /**
     * Record a measured value for @p name. Repeated records (e.g.
     * --benchmark_repetitions) keep the fastest run as the headline:
     * for a throughput metric the max is the least-interference
     * estimate. Every sample is kept exactly, so the snapshot reports
     * honest run-to-run spread (min/mean/p50/p95/p99) — the old
     * log-bucketed histogram collapsed a handful of repetitions into
     * one bucket and printed p50 == p95 == p99.
     */
    void
    record(const std::string &name, double value)
    {
        auto &e = entry(name);
        e.value = std::max(e.value, value);
        e.samples.push_back(value);
    }

    /**
     * Exact percentile over the recorded samples: linear
     * interpolation between closest ranks, the convention used by
     * numpy and gbench aggregates. @p p in [0, 100].
     */
    static double
    percentileOf(std::vector<double> sorted, double p)
    {
        if (sorted.empty())
            return 0.0;
        std::sort(sorted.begin(), sorted.end());
        const double rank =
            (p / 100.0) * double(sorted.size() - 1);
        const std::size_t lo = std::size_t(rank);
        const std::size_t hi =
            lo + 1 < sorted.size() ? lo + 1 : lo;
        const double frac = rank - double(lo);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    }

    /** The machine a snapshot was taken on; its numbers mean little
     * on another. */
    struct Machine
    {
        std::string cpu;
        unsigned nproc = 0;
        std::string compiler;
        std::string buildType;
    };

    /** Record the machine: written as a "machine" object ahead of
     * the results (perf_check reads only the results). */
    void machine(Machine m) { machine_ = std::move(m); }

    /** Write the snapshot as JSON. @retval false open/write failed. */
    bool
    writeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\n  \"metric\": \"%s\",", metric_.c_str());
        if (machine_.nproc > 0) {
            std::fprintf(f,
                         "\n  \"machine\": {\"cpu\": \"%s\", \"nproc\": %u, "
                         "\"compiler\": \"%s\", \"build_type\": \"%s\"},",
                         machine_.cpu.c_str(), machine_.nproc,
                         machine_.compiler.c_str(),
                         machine_.buildType.c_str());
        }
        std::fprintf(f, "\n  \"results\": {");
        const char *sep = "\n";
        for (const auto &e : entries_) {
            std::fprintf(f, "%s    \"%s\": {\n      \"value\": %.1f",
                         sep, e.name.c_str(), e.value);
            if (e.baseline > 0.0) {
                std::fprintf(f,
                             ",\n      \"baseline\": %.1f"
                             ",\n      \"speedup\": %.3f",
                             e.baseline, e.value / e.baseline);
            }
            // Spread only means something with repetitions; a single
            // sample would just echo the value.
            if (e.samples.size() > 1) {
                double sum = 0.0;
                double mn = e.samples.front();
                for (double s : e.samples) {
                    sum += s;
                    mn = std::min(mn, s);
                }
                std::fprintf(
                    f,
                    ",\n      \"samples\": %llu"
                    ",\n      \"min\": %.1f"
                    ",\n      \"mean\": %.1f"
                    ",\n      \"p50\": %.1f"
                    ",\n      \"p95\": %.1f"
                    ",\n      \"p99\": %.1f",
                    static_cast<unsigned long long>(e.samples.size()),
                    mn, sum / double(e.samples.size()),
                    percentileOf(e.samples, 50),
                    percentileOf(e.samples, 95),
                    percentileOf(e.samples, 99));
            }
            std::fprintf(f, "\n    }");
            sep = ",\n";
        }
        std::fprintf(f, "\n  }\n}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        double baseline = 0.0;
        /** Every recorded sample, in record order (exact spread). */
        std::vector<double> samples;
    };

    Entry &
    entry(const std::string &name)
    {
        for (auto &e : entries_)
            if (e.name == name)
                return e;
        entries_.push_back(Entry{name, 0.0, 0.0, {}});
        return entries_.back();
    }

    std::string metric_;
    std::vector<Entry> entries_;
    Machine machine_;
};

} // namespace molecule::bench

#endif // MOLECULE_BENCH_COMMON_HH
