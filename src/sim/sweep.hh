/**
 * @file
 * Parallel sweep runner: fan independent simulation replicas across
 * threads.
 *
 * Every bench/test sweep in this repository (seed sweeps, design-space
 * grids, parameter ladders) runs N completely independent Simulation
 * instances — they share no state, so the sweep is embarrassingly
 * parallel. SweepRunner multiplies sweep capacity by the core count
 * while preserving determinism: each replica is a pure function of its
 * index (which selects seed/parameters), and results land in an
 * index-addressed vector, so the output is bit-identical to a serial
 * run regardless of thread interleaving.
 *
 * Threading model: each forEach/map call starts its own threads, which
 * drain a shared atomic index together with the calling thread and
 * are joined before the call returns. The first exception thrown by
 * any replica is captured, the replicas not yet started are skipped,
 * and the exception is rethrown on the calling thread.
 */

#ifndef MOLECULE_SIM_SWEEP_HH
#define MOLECULE_SIM_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace molecule::sim {

/**
 * Runs independent replicas on up to threadCount() threads.
 *
 * @warning Replica bodies must not touch shared mutable state; a
 * Simulation and everything hanging off it belong to exactly one
 * replica. The runner provides no synchronization beyond the start
 * and end of a call.
 */
class SweepRunner
{
  public:
    /** @param threads parallelism; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0)
        : threads_(threads != 0
                       ? threads
                       : std::max(1u, std::thread::hardware_concurrency()))
    {}

    /** Most threads one call runs replicas on (the caller included). */
    unsigned threadCount() const { return threads_; }

    /**
     * Run body(i) for every i in [0, count) on min(threadCount(),
     * count) threads, the caller one of them; returns once all
     * replicas finish. Rethrows the first replica exception (replicas
     * not yet started are skipped, in-flight ones finish first).
     */
    template <typename Fn>
    void
    forEach(std::size_t count, Fn &&body) const
    {
        if (count == 0)
            return;
        std::atomic<std::size_t> next{0};
        std::exception_ptr error;
        std::mutex errorMutex;
        auto drain = [&] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                try {
                    body(i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(errorMutex);
                    if (!error)
                        error = std::current_exception();
                    next.store(count);
                }
            }
        };
        {
            const std::size_t helpers =
                std::min<std::size_t>(threads_, count) - 1;
            std::vector<std::jthread> threads;
            threads.reserve(helpers);
            for (std::size_t t = 0; t < helpers; ++t)
                threads.emplace_back(drain);
            drain();
        } // joins the helpers
        if (error)
            std::rethrow_exception(error);
    }

    /**
     * Evaluate fn(i) for every i in [0, count) and collect the results
     * in index order. R must be default-constructible; fn must be
     * callable from multiple threads on distinct indices.
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t count, Fn &&fn) const
    {
        std::vector<R> out(count);
        forEach(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    unsigned threads_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SWEEP_HH
