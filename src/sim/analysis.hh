/**
 * @file
 * Determinism analysis: the sim-time conflict detector.
 *
 * The DES orders same-timestamp events solely by schedule sequence
 * (FIFO tie-break, event_queue.hh). That makes runs bit-reproducible,
 * but it also means any pair of same-instant accesses to one piece of
 * model state — where at least one access is a write, and both events
 * were scheduled *before* that instant — produces a result that depends
 * only on the fragile tie-break: reordering the schedule calls (a
 * refactor, a container change) silently changes simulated results.
 *
 * This header provides the runtime half of the determinism wall:
 *
 *  - Tracked<T>: an accessor wrapper for shared model state. Reads and
 *    writes are recorded (sim time, executing event, access kind,
 *    source site) into the active AccessLog; with no log installed
 *    the accessors are plain passthrough behind one null check.
 *  - AccessLog: a ring buffer of access records owned by a Simulation,
 *    plus the conflict analysis that pairs up same-timestamp accesses
 *    after a run.
 *
 * Causality filter: an event scheduled *at* the current instant (zero
 * delay, wakeup via scheduleResume) is causally ordered behind the
 * event that scheduled it, so its accesses cannot race with its
 * scheduler's — those pairs are suppressed. Only events that were both
 * scheduled at an earlier instant (independent timers landing on the
 * same tick) are reported.
 *
 * Runtime gate: Simulation::enableConflictTracking; when off the
 * per-event cost is one branch.
 */

#ifndef MOLECULE_SIM_ANALYSIS_HH
#define MOLECULE_SIM_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <source_location>
#include <string>
#include <utility>
#include <vector>

namespace molecule::sim::analysis {

/** Kind of a tracked access. */
enum class AccessKind : std::uint8_t { Read, Write };

const char *toString(AccessKind k);

/** One recorded access to a tracked cell. */
struct AccessRecord
{
    /** Identity of the tracked cell (address of the Tracked<T>). */
    const void *cell = nullptr;
    /** Human-readable cell name given at Tracked construction. */
    const char *cellName = "?";
    /** Sim time of the access (fire time of the executing event). */
    std::int64_t when = 0;
    /** Schedule sequence of the executing event (tie-break key). */
    std::uint64_t eventSeq = 0;
    /** Sim time at which the executing event was scheduled. */
    std::int64_t schedAt = 0;
    AccessKind kind = AccessKind::Read;
    /** @name Source site of the access (std::source_location). */
    ///@{
    const char *file = "?";
    const char *function = "?";
    std::uint32_t line = 0;
    ///@}
};

/**
 * A pair of same-timestamp accesses to the same cell whose order is
 * decided only by the schedule-sequence tie-break.
 */
struct Conflict
{
    const char *cellName = "?";
    std::int64_t when = 0;
    AccessRecord a; // lower event seq (fires first)
    AccessRecord b; // higher event seq
};

/** Multi-line human-readable rendering of one conflict. */
std::string describe(const Conflict &c);

/**
 * Ring buffer of access records plus per-event context.
 *
 * One AccessLog belongs to one Simulation. While the simulation fires
 * an event the log is installed as the calling thread's *current* log
 * (AccessLog::Scope), which is what Tracked<T> accessors consult — so
 * parallel SweepRunner replicas each record into their own log.
 */
class AccessLog
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t(1) << 16;

    /** Conflicts reported per analysis (bounds the O(n^2) pair scan). */
    static constexpr std::size_t kMaxConflicts = 1024;

    explicit AccessLog(std::size_t capacity = kDefaultCapacity);

    AccessLog(const AccessLog &) = delete;
    AccessLog &operator=(const AccessLog &) = delete;

    /** @name Event-lifecycle hooks (called by Simulation) */
    ///@{

    /** Event @p seq was scheduled at sim time @p at. */
    void noteScheduled(std::uint64_t seq, std::int64_t at);

    /** Event @p seq was cancelled before firing. */
    void dropScheduled(std::uint64_t seq);

    /** Event @p seq starts firing at sim time @p when. */
    void beginEvent(std::int64_t when, std::uint64_t seq);
    ///@}

    /** Record one access under the current event context. */
    void record(const void *cell, const char *cellName, AccessKind kind,
                const std::source_location &loc);

    /** @name Post-run analysis */
    ///@{

    /**
     * Pair up same-timestamp accesses to the same cell where at least
     * one side is a write, the two sides belong to different events,
     * and both events were scheduled before the shared timestamp (see
     * the causality filter in the file header). One conflict is
     * reported per (cell, timestamp) group, naming both source sites.
     */
    std::vector<Conflict> findConflicts() const;

    /** All records currently held (oldest first). */
    std::vector<AccessRecord> snapshot() const;

    std::size_t recordCount() const { return count_; }

    /** Records overwritten because the ring filled (0 = complete log). */
    std::uint64_t droppedRecords() const { return dropped_; }

    /** Forget all records and scheduling metadata. */
    void clear();
    ///@}

    /** The calling thread's active log (nullptr outside tracking). */
    static AccessLog *current();

    /** RAII guard installing a log as the thread's current one. */
    class Scope
    {
      public:
        explicit Scope(AccessLog *log);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        AccessLog *prev_;
    };

  private:
    std::vector<AccessRecord> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0; // next overwrite position once full
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;

    /** Schedule time of each still-pending event, keyed by seq. */
    std::map<std::uint64_t, std::int64_t> pendingSchedAt_;

    /** @name Current event context (set by beginEvent) */
    ///@{
    std::int64_t curWhen_ = 0;
    std::uint64_t curSeq_ = 0;
    std::int64_t curSchedAt_ = 0;
    ///@}
};

/**
 * Accessor wrapper for shared model state.
 *
 * Wrap state whose same-instant access order is semantically
 * meaningful (admission counters, replicated-store versions, device
 * occupancy). Use read()/write()/fetchAdd() on model paths so accesses
 * are attributed to their source site; peek() is the untracked escape
 * hatch for stats/reporting paths outside the simulation.
 */
template <typename T>
class Tracked
{
  public:
    Tracked() = default;

    explicit Tracked(T initial, const char *name = "?")
        : value_(std::move(initial)), name_(name)
    {}

    /** Tracked read. */
    const T &
    read(const std::source_location &loc =
             std::source_location::current()) const
    {
        note(AccessKind::Read, loc);
        return value_;
    }

    /** Tracked overwrite. */
    void
    write(T v,
          const std::source_location &loc = std::source_location::current())
    {
        note(AccessKind::Write, loc);
        value_ = std::move(v);
    }

    /** Tracked in-place mutation: records a write, returns the value. */
    T &
    writeRef(const std::source_location &loc =
                 std::source_location::current())
    {
        note(AccessKind::Write, loc);
        return value_;
    }

    /** Counter idiom: record a write, add @p delta, return old value. */
    T
    fetchAdd(T delta,
             const std::source_location &loc =
                 std::source_location::current())
    {
        note(AccessKind::Write, loc);
        T old = value_;
        value_ += delta;
        return old;
    }

    /** Untracked read (stats/reporting outside the simulation). */
    const T &peek() const { return value_; }

    const char *name() const { return name_; }

  private:
    void
    note(AccessKind kind, const std::source_location &loc) const
    {
        if (AccessLog *log = AccessLog::current())
            log->record(this, name_, kind, loc);
    }

    T value_{};
    const char *name_ = "?";
};

} // namespace molecule::sim::analysis

#endif // MOLECULE_SIM_ANALYSIS_HH
