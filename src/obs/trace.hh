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
 * spans from it. There is no thread-local "current span" or other
 * ambient state: coroutine interleavings make ambient stacks
 * mis-parent.
 *
 * Runtime gate: a null Tracer. Spans built from an inert context or
 * a null tracer record nothing and cost one branch and a null
 * pointer, so observation is off unless a Tracer is attached.
 */

#ifndef MOLECULE_OBS_TRACE_HH
#define MOLECULE_OBS_TRACE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/registry.hh"
#include "obs/span_buffer.hh"
#include "sim/simulation.hh"
#include "sim/spares.hh"

namespace molecule::obs {

/** The five instrumented layers of the stack. */
enum class Layer : std::uint8_t { Core, Xpu, Os, Sandbox, Hw };

const char *toString(Layer l);

class Tracer;

// SpanRecord lives in obs/span_buffer.hh together with its
// chunked container.

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
 * A span's record while the span is open. The tracer hands one out as
 * a Span opens and takes it back in Span::finish(); the tracer owns
 * it throughout.
 */
struct OpenSpan
{
    Tracer *tracer = nullptr;
    SpanRecord rec;
};

/**
 * Per-simulation span collector. Owns the finished-span buffer, the
 * records of open spans and a metrics Registry fed one histogram
 * sample per finished span (the unified per-phase latency registry).
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
     * The records live in the tracer's buffer; anything that must
     * outlive the tracer copies out via SpanBuffer::snapshot().
     */
    const SpanBuffer &records() const { return records_; }

    /** Spans discarded because the ring filled (0 = complete). */
    std::uint64_t dropped() const { return dropped_; }

    /** Per-phase metrics: one histogram per span name, plus counters. */
    Registry &metrics() { return metrics_; }

    const Registry &metrics() const { return metrics_; }

    /** Drop the finished spans and the metrics. Open spans keep their
     * records and push them when they finish. */
    void clear();

  private:
    friend class Span;

    /** Open records per chunk. */
    static constexpr std::size_t kOpenChunk = 32;

    /** A record for a span opening now, with a fresh span id. */
    OpenSpan *open(std::uint64_t trace, std::uint64_t parent,
                   const char *name, Layer layer, int pu);

    /** Stamp the end of @p span, push it and take the record back. */
    void close(OpenSpan &span);

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
    /** Every open-record chunk ever made; records never move. */
    std::vector<std::unique_ptr<OpenSpan[]>> openChunks_;
    /** Records no open span holds (DESIGN.md §4b, Spares). */
    sim::Spares<OpenSpan *> spareOpen_;
};

/**
 * RAII span. Construct from a parent SpanContext (child span) or via
 * root() (new trace). Destruction finishes the span; finish() may be
 * called earlier (idempotent) when the span must close before the
 * enclosing scope does — e.g. an invocation root span closes before
 * the keep-alive release that follows the measured end-to-end window.
 *
 * A handle: it points at the record the tracer lent it while it is
 * open, and at nothing when it is inert or finished, so an inert span
 * in a coroutine frame costs one pointer.
 */
class Span
{
  public:
    /** Inert span (no tracer). */
    Span() = default;

    /** Child span of @p ctx; inert when @p ctx is. */
    Span(const SpanContext &ctx, const char *name, Layer layer,
         int pu = -1)
        : open_(ctx.tracer == nullptr
                    ? nullptr
                    : ctx.tracer->open(ctx.trace, ctx.span, name, layer,
                                       pu))
    {}

    /** Start a new trace rooted at this span; inert when @p tracer
     * is null. */
    static Span
    root(Tracer *tracer, const char *name, Layer layer, int pu = -1)
    {
        if (tracer == nullptr)
            return Span();
        const std::uint64_t trace = tracer->newTraceId();
        return Span(tracer->open(trace, 0, name, layer, pu));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span() { finish(); }

    /** Record the end timestamp and push the span (idempotent). */
    void
    finish()
    {
        if (open_ != nullptr) {
            OpenSpan *span = std::exchange(open_, nullptr);
            span->tracer->close(*span);
        }
    }

    /** Context for child spans (inert unless this span is open). */
    SpanContext
    ctx() const
    {
        if (open_ == nullptr)
            return SpanContext{};
        return SpanContext{open_->tracer, open_->rec.traceId,
                           open_->rec.spanId};
    }

    bool active() const { return open_ != nullptr; }

    /** This span's trace id; 0 unless it is open. */
    std::uint64_t
    traceId() const
    {
        return open_ != nullptr ? open_->rec.traceId : 0;
    }

    /** This span's id; 0 unless it is open. */
    std::uint64_t
    spanId() const
    {
        return open_ != nullptr ? open_->rec.spanId : 0;
    }

    void
    setPu(int pu)
    {
        if (open_ != nullptr)
            open_->rec.pu = pu;
    }

    void
    setArg(std::int64_t arg)
    {
        if (open_ != nullptr)
            open_->rec.arg = arg;
    }

    /** Truncating copy of @p s into the record's detail buffer. */
    void
    setDetail(const char *s)
    {
        if (open_ == nullptr || s == nullptr)
            return;
        SpanRecord &rec = open_->rec;
        std::strncpy(rec.detail, s, sizeof(rec.detail) - 1);
        rec.detail[sizeof(rec.detail) - 1] = '\0';
    }

  private:
    explicit Span(OpenSpan *open) : open_(open) {}

    /** The tracer's record while open, else null. */
    OpenSpan *open_ = nullptr;
};

static_assert(sizeof(Span) <= 16, "an inert Span is a handle");

} // namespace molecule::obs

#endif // MOLECULE_OBS_TRACE_HH
