#include "obs/trace.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace molecule::obs {

const char *
toString(Layer l)
{
    switch (l) {
      case Layer::Core:
        return "core";
      case Layer::Xpu:
        return "xpu";
      case Layer::Os:
        return "os";
      case Layer::Sandbox:
        return "sandbox";
      case Layer::Hw:
        return "hw";
    }
    return "?";
}

namespace {

/**
 * Ambient ids for log-line prefixes only. Thread-local, so parallel
 * SweepRunner replicas never see each other's ids. Coroutine
 * interleavings can leave a sibling's ids ambient between suspends —
 * acceptable for log decoration, never used for parenting.
 */
thread_local std::uint64_t t_ambientTrace = 0;
thread_local std::uint64_t t_ambientSpan = 0;

std::size_t
logPrefix(char *buf, std::size_t cap)
{
    if (t_ambientTrace == 0)
        return 0;
    const int n = std::snprintf(
        buf, cap, "[trace:%016llx span:%llu] ",
        static_cast<unsigned long long>(t_ambientTrace),
        static_cast<unsigned long long>(t_ambientSpan));
    return n > 0 ? std::size_t(n) : 0;
}

} // namespace

void
installLogPrefixHook()
{
    sim::setLogPrefixHook(&logPrefix);
}

Tracer::Tracer(sim::Simulation &sim, std::uint64_t seed,
               std::size_t ringCapacity)
    : sim_(sim), seed_(seed), ringCapacity_(ringCapacity),
      records_(sim.arena())
{
    installLogPrefixHook();
}

std::uint64_t
Tracer::newTraceId()
{
    // FNV-1a over (seed, counter): deterministic for a fixed seed,
    // distinct across seeds so merged multi-replica traces never
    // collide.
    constexpr std::uint64_t kOffset = 14695981039346656037ULL;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t h = kOffset;
    const std::uint64_t counter = nextTrace_++;
    for (std::uint64_t v : {seed_, counter}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= kPrime;
        }
    }
    // Trace id 0 means "no trace"; keep it unreachable.
    return h == 0 ? 1 : h;
}

void
Tracer::push(const SpanRecord &rec)
{
    if (ringCapacity_ != 0 && records_.size() >= ringCapacity_) {
        // Compact ring: drop the oldest half so pushes stay amortized
        // O(1); vacated chunks recycle inside the SpanBuffer.
        const std::size_t keep = ringCapacity_ / 2;
        dropped_ += records_.size() - keep;
        records_.dropOldest(records_.size() - keep);
    }
    records_.push_back(rec);
    metrics_.histogram(rec.name).addTime(
        sim::SimTime(rec.end - rec.start));
    Counter *&layerCounter = layerCounters_[std::size_t(rec.layer)];
    if (layerCounter == nullptr) {
        // First span of this layer: build the "spans.<layer>" name
        // once and cache the (address-stable) registry node.
        layerCounter = &metrics_.counter(std::string("spans.") +
                                         toString(rec.layer));
    }
    layerCounter->inc();
}

void
Tracer::clear()
{
    records_.clear();
    dropped_ = 0;
    metrics_.clear();
    for (Counter *&c : layerCounters_)
        c = nullptr;
}

Span::Span(Tracer *tracer, std::uint64_t trace, std::uint64_t parent,
           const char *name, Layer layer, int pu)
    : tracer_(tracer), open_(tracer != nullptr)
{
    if (!open_)
        return;
    rec_.traceId = trace;
    rec_.spanId = tracer_->newSpanId();
    rec_.parentId = parent;
    rec_.name = name;
    rec_.layer = layer;
    rec_.pu = pu;
    rec_.start = tracer_->now();
    rec_.end = rec_.start;
    prevAmbientTrace_ = t_ambientTrace;
    prevAmbientSpan_ = t_ambientSpan;
    t_ambientTrace = rec_.traceId;
    t_ambientSpan = rec_.spanId;
}

Span::Span(const SpanContext &ctx, const char *name, Layer layer, int pu)
    : Span(ctx.tracer, ctx.trace, ctx.span, name, layer, pu)
{}

Span
Span::root(Tracer *tracer, const char *name, Layer layer, int pu)
{
    return Span(tracer, tracer ? tracer->newTraceId() : 0, 0, name,
                layer, pu);
}

void
Span::finish()
{
    if (!open_)
        return;
    open_ = false;
    rec_.end = tracer_->now();
    tracer_->push(rec_);
    // Restore the ambient ids only if no interleaved span overwrote
    // them meanwhile (non-LIFO coroutine teardown is legal).
    if (t_ambientTrace == rec_.traceId && t_ambientSpan == rec_.spanId) {
        t_ambientTrace = prevAmbientTrace_;
        t_ambientSpan = prevAmbientSpan_;
    }
}

} // namespace molecule::obs
