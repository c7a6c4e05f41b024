/**
 * @file
 * Causal tracing: sim-time spans across every layer of the stack.
 *
 * A *trace* follows one invocation (or chain) from gateway admission
 * through scheduler placement, startup phases, XPU-Shim capability
 * sync, nIPC hops, sandbox execution and hardware activity. A *span*
 * is one named, timed section of that path, attributed to a layer
 * (core/xpu/os/sandbox/hw) and a PU.
 *
 * Determinism rules (see DESIGN.md §5):
 *  - Timestamps are sim time (Simulation::now), so a trace is as
 *    bit-reproducible as the simulation that produced it.
 *  - Trace ids derive from the simulation seed plus a per-tracer
 *    counter (FNV-1a), never from wallclock or addresses.
 *  - A Tracer belongs to ONE Simulation (per-replica, not global), so
 *    SweepRunner replicas record into independent collectors.
 *  - Observation must not perturb: spans only read the clock; they
 *    never schedule events or consume simulation randomness.
 *
 * Causal parenting is explicit: a span hands its SpanContext (a
 * trivially-copyable POD — safe as a coroutine parameter under the
 * GCC 12 rules of sim/task.hh) to callees, which construct child
 * spans from it. There is no thread-local "current span" on model
 * paths: coroutine interleavings make ambient stacks mis-parent.
 * The only ambient state is a pair of copied ids used to prefix log
 * lines (logging.cc hook), which is best-effort by design.
 *
 * Runtime gate: a null Tracer. Spans built from an inert context or
 * a null tracer record nothing and cost one branch, so observation is
 * off unless a Tracer is attached.
 */

#ifndef MOLECULE_OBS_TRACE_HH
#define MOLECULE_OBS_TRACE_HH

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "obs/registry.hh"
#include "obs/span_buffer.hh"
#include "sim/simulation.hh"

namespace molecule::obs {

/** The five instrumented layers of the stack. */
enum class Layer : std::uint8_t { Core, Xpu, Os, Sandbox, Hw };

const char *toString(Layer l);

class Tracer;

// SpanRecord lives in obs/span_buffer.hh together with its
// arena-backed container.

/**
 * Causal position inside a trace: which tracer, which trace, which
 * span to parent on. Default-constructed contexts are inert; spans
 * created from them are no-ops, which is what makes the whole layer
 * zero-cost when no tracer is attached.
 */
struct SpanContext
{
    Tracer *tracer = nullptr;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;

    bool active() const { return tracer != nullptr; }
};

static_assert(std::is_trivially_copyable_v<SpanContext>,
              "SpanContext must stay safe as a coroutine parameter");

/**
 * Per-simulation span collector. Owns the finished-span buffer and a
 * metrics Registry fed one histogram sample per finished span (the
 * unified per-phase latency registry).
 */
class Tracer
{
  public:
    /**
     * @param sim the simulation whose clock stamps spans
     * @param seed the simulation's seed; trace ids derive from it
     * @param ringCapacity keep at most this many finished spans
     *        (oldest dropped); 0 = unbounded
     */
    explicit Tracer(sim::Simulation &sim, std::uint64_t seed = 42,
                    std::size_t ringCapacity = 0);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** @name Id allocation (deterministic: seed + counters) */
    ///@{
    std::uint64_t newTraceId();

    std::uint64_t newSpanId() { return nextSpanId_++; }
    ///@}

    std::int64_t now() const { return sim_.now().raw(); }

    /** Append one finished span (ring-bounded, allocation-free at
     * steady state — see SpanBuffer). */
    void push(const SpanRecord &rec);

    /**
     * Finished spans, oldest first (ring order already linearized).
     * The records live in the simulation's arena; anything that must
     * outlive the simulation copies out via SpanBuffer::snapshot().
     */
    const SpanBuffer &records() const { return records_; }

    /** Spans discarded because the ring filled (0 = complete). */
    std::uint64_t dropped() const { return dropped_; }

    /** Per-phase metrics: one histogram per span name, plus counters. */
    Registry &metrics() { return metrics_; }

    const Registry &metrics() const { return metrics_; }

    void clear();

  private:
    sim::Simulation &sim_;
    std::uint64_t seed_;
    std::uint64_t nextTrace_ = 1;
    std::uint64_t nextSpanId_ = 1;
    std::size_t ringCapacity_;
    std::uint64_t dropped_ = 0;
    SpanBuffer records_;
    Registry metrics_;
    /** Cached "spans.<layer>" counters: Registry nodes are
     * address-stable, so push() skips the name round trip. Reset by
     * clear() together with the registry. */
    Counter *layerCounters_[5] = {};
};

/**
 * RAII span. Construct from a parent SpanContext (child span) or via
 * root() (new trace). Destruction finishes the span; finish() may be
 * called earlier (idempotent) when the span must close before the
 * enclosing scope does — e.g. an invocation root span closes before
 * the keep-alive release that follows the measured end-to-end window.
 */
class Span
{
  public:
    /** Inert span (no tracer). */
    Span() = default;

    /** Child span of @p ctx; inert when @p ctx is. */
    Span(const SpanContext &ctx, const char *name, Layer layer,
         int pu = -1);

    /** Start a new trace rooted at this span; inert when @p tracer
     * is null. */
    static Span root(Tracer *tracer, const char *name, Layer layer,
                     int pu = -1);

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { finish(); }

    /** Record the end timestamp and push the span (idempotent). */
    void finish();

    /** Context for child spans (inert when this span is). */
    SpanContext
    ctx() const
    {
        if (!open_)
            return SpanContext{};
        return SpanContext{tracer_, rec_.traceId, rec_.spanId};
    }

    bool active() const { return open_; }

    std::uint64_t traceId() const { return rec_.traceId; }

    std::uint64_t spanId() const { return rec_.spanId; }

    void
    setPu(int pu)
    {
        rec_.pu = pu;
    }

    void
    setArg(std::int64_t arg)
    {
        rec_.arg = arg;
    }

    /** Truncating copy of @p s into the record's detail buffer. */
    void
    setDetail(const char *s)
    {
        if (!open_ || s == nullptr)
            return;
        std::strncpy(rec_.detail, s, sizeof(rec_.detail) - 1);
        rec_.detail[sizeof(rec_.detail) - 1] = '\0';
    }

  private:
    Span(Tracer *tracer, std::uint64_t trace, std::uint64_t parent,
         const char *name, Layer layer, int pu);

    Tracer *tracer_ = nullptr;
    bool open_ = false;
    SpanRecord rec_;
    /** Ambient log-prefix ids shadowed by this span (restored on
     * finish only if still ours — see ambient notes in the header). */
    std::uint64_t prevAmbientTrace_ = 0;
    std::uint64_t prevAmbientSpan_ = 0;
};

/**
 * Install the sim/logging prefix hook: while any span is ambient on
 * the calling thread, log lines carry a "[trace:... span:...]"
 * prefix. Idempotent; called by the Tracer constructor.
 */
void installLogPrefixHook();

} // namespace molecule::obs

#endif // MOLECULE_OBS_TRACE_HH
