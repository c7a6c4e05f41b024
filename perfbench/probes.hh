/**
 * @file
 * Wall-clock probes installed through the simulator's public seams.
 *
 * Nothing here reaches into src/: the probes wrap the interfaces the
 * runtime already lets callers swap (ArrivalSink, DispatchPolicy,
 * PlacementPolicy, KeepAliveStrategy) and forward every call
 * unchanged, so a probed run makes exactly the decisions an unprobed
 * one makes. The benchmark checks that by comparing digests.
 *
 * Timing is self-time: a probe's frame subtracts the time of probes
 * nested inside it, so rows never double count one another. The cost
 * of reading the clock is calibrated once and taken out of every
 * frame.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/gateway.hh"
#include "core/keepalive.hh"
#include "core/placement.hh"
#include "load/generator.hh"
#include "sim/simulation.hh"

namespace perfbench {

using namespace molecule;

inline std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The probed call sites. */
enum Probe : std::uint8_t {
    kGenNext,      ///< OpenLoopGenerator::next
    kArrival,      ///< ArrivalSink::onArrival (gateway or chain front door)
    kDispatchPick, ///< DispatchPolicy::pick
    kPolicyPlace,  ///< PlacementPolicy::place
    kKeepScore,    ///< KeepAliveStrategy::score
    kKeepOther,    ///< KeepAliveStrategy onRequest/parkPriority/onEvict
    kProbeCount,
};

/** Self-time profiler over a stack of nested probe frames. */
class Profiler
{
  public:
    struct Row
    {
        std::int64_t calls = 0;
        double selfNs = 0.0;
        double inclNs = 0.0;
    };

    Profiler();

    void
    enter(Probe p)
    {
        stack_[depth_++] = Frame{p, wallNs(), 0.0};
    }

    void
    exit()
    {
        const std::int64_t t = wallNs();
        const Frame f = stack_[--depth_];
        const double raw = double(t - f.start);
        Row &r = rows_[f.probe];
        ++r.calls;
        r.inclNs += raw - clockNs_;
        r.selfNs += raw - clockNs_ - f.childNs;
        // The child's two clock reads sit inside the parent's interval.
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += raw + clockNs_;
    }

    void reset() { rows_ = {}; }

    const Row &row(Probe p) const { return rows_[p]; }

  private:
    struct Frame
    {
        Probe probe;
        std::int64_t start;
        double childNs;
    };

    std::array<Frame, 16> stack_{};
    int depth_ = 0;
    std::array<Row, kProbeCount> rows_{};
    double clockNs_ = 0.0;
};

/** RAII frame; inert when the profiler is null. */
class Scope
{
  public:
    Scope(Profiler *prof, Probe p) : prof_(prof)
    {
        if (prof_ != nullptr)
            prof_->enter(p);
    }

    ~Scope()
    {
        if (prof_ != nullptr)
            prof_->exit();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Profiler *prof_;
};

/** One completion: when it arrived and how long it took, sim time. */
struct LatencySample
{
    sim::SimTime arrival;
    sim::SimTime latency;
};

/**
 * Least-outstanding dispatch (the gateway default) that also records
 * every completion's arrival->completion sim latency.
 */
class RecordingDispatch final : public cluster::DispatchPolicy
{
  public:
    RecordingDispatch(sim::Simulation &sim, Profiler *prof)
        : sim_(sim), prof_(prof)
    {}

    const char *name() const override { return inner_.name(); }

    int
    pick(const load::Arrival &a, std::span<const int> outstanding,
         int cap) override
    {
        Scope s(prof_, kDispatchPick);
        return inner_.pick(a, outstanding, cap);
    }

    void
    onComplete(const load::Arrival &a, int node) override
    {
        inner_.onComplete(a, node);
        samples.push_back(LatencySample{a.at, sim_.now() - a.at});
    }

    std::vector<LatencySample> samples;

  private:
    sim::Simulation &sim_;
    Profiler *prof_;
    cluster::LeastOutstandingPolicy inner_;
};

/** Times PlacementPolicy::place; counts picks off the manager PU. */
class TimedPlacement final : public core::PlacementPolicy
{
  public:
    TimedPlacement(std::unique_ptr<core::PlacementPolicy> inner,
                   Profiler *prof, int managerPu)
        : inner_(std::move(inner)), prof_(prof), managerPu_(managerPu)
    {}

    const char *name() const override { return inner_->name(); }

    int
    place(const core::PlacementRequest &req,
          const core::PlacementView &view) override
    {
        int pick;
        {
            Scope s(prof_, kPolicyPlace);
            pick = inner_->place(req, view);
        }
        if (pick >= 0 && pick != managerPu_)
            ++remotePicks;
        return pick;
    }

    void onDispatch(int pu) override { inner_->onDispatch(pu); }

    void onComplete(int pu) override { inner_->onComplete(pu); }

    /** Placements on a PU other than the manager's: each one pays a
     * manager->worker XpuShimNetwork::transfer. */
    std::int64_t remotePicks = 0;

  private:
    std::unique_ptr<core::PlacementPolicy> inner_;
    Profiler *prof_;
    int managerPu_;
};

/** Times every KeepAliveStrategy hook; score() in its own row. */
class TimedKeepAlive final : public core::KeepAliveStrategy
{
  public:
    TimedKeepAlive(std::unique_ptr<core::KeepAliveStrategy> inner,
                   Profiler *prof)
        : inner_(std::move(inner)), prof_(prof)
    {}

    const char *name() const override { return inner_->name(); }

    void
    onRequest(std::string_view fn, int pu, sim::SimTime now) override
    {
        Scope s(prof_, kKeepOther);
        inner_->onRequest(fn, pu, now);
    }

    double
    parkPriority(const core::WarmEntryView &entry) override
    {
        Scope s(prof_, kKeepOther);
        return inner_->parkPriority(entry);
    }

    double
    score(const core::WarmEntryView &entry,
          sim::SimTime now) const override
    {
        Scope s(prof_, kKeepScore);
        return inner_->score(entry, now);
    }

    void
    onEvict(const core::WarmEntryView &entry) override
    {
        Scope s(prof_, kKeepOther);
        inner_->onEvict(entry);
    }

  private:
    std::unique_ptr<core::KeepAliveStrategy> inner_;
    Profiler *prof_;
};

/**
 * Times the front door's onArrival. @p nested snapshots public
 * counters (placements, sandbox acquires) around each call, so the
 * ledger can take work the probes cannot see out of the frame.
 */
class TimedSink final : public load::ArrivalSink
{
  public:
    struct Counts
    {
        std::int64_t placements = 0;
        std::int64_t warmAcquires = 0;
    };

    TimedSink(load::ArrivalSink &inner, Profiler &prof,
              std::function<Counts()> counts)
        : inner_(inner), prof_(prof), counts_(std::move(counts))
    {}

    void
    onArrival(const load::Arrival &a) override
    {
        const Counts before = counts_();
        {
            Scope s(&prof_, kArrival);
            inner_.onArrival(a);
        }
        const Counts after = counts_();
        nested.placements += after.placements - before.placements;
        nested.warmAcquires += after.warmAcquires - before.warmAcquires;
    }

    /** Work done inside onArrival frames since the last reset. */
    Counts nested;

  private:
    load::ArrivalSink &inner_;
    Profiler &prof_;
    std::function<Counts()> counts_;
};

/**
 * load::drive with OpenLoopGenerator::next timed: the same arrival
 * instants, the same delays, the same sink calls.
 */
sim::Task<> timedDrive(sim::Simulation &sim, load::OpenLoopGenerator &gen,
                       load::ArrivalSink &sink, Profiler &prof);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
