#include "obs/trace.hh"

#include "sim/stats.hh"

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

Tracer::Tracer(sim::Simulation &sim, std::uint64_t seed,
               std::size_t ringCapacity)
    : sim_(sim), seed_(seed), ringCapacity_(ringCapacity)
{}

std::uint64_t
Tracer::newTraceId()
{
    // FNV-1a over (seed, counter): deterministic for a fixed seed,
    // distinct across seeds so merged multi-replica traces never
    // collide.
    sim::Fingerprint fp;
    fp.mix(seed_);
    fp.mix(nextTrace_++);
    const std::uint64_t h = fp.digest();
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

OpenSpan *
Tracer::open(std::uint64_t trace, std::uint64_t parent, const char *name,
             Layer layer, int pu)
{
    OpenSpan *span = spareOpen_.take();
    if (span == nullptr) {
        // A chunk at a time, like SpanBuffer: the records never move,
        // so the spans holding them stay valid.
        openChunks_.push_back(std::make_unique<OpenSpan[]>(kOpenChunk));
        OpenSpan *chunk = openChunks_.back().get();
        for (std::size_t i = kOpenChunk; i-- > 1;) {
            chunk[i].tracer = this;
            spareOpen_.put(&chunk[i]);
        }
        span = &chunk[0];
        span->tracer = this;
    }
    const std::int64_t start = now();
    span->rec = SpanRecord{.traceId = trace,
                           .spanId = newSpanId(),
                           .parentId = parent,
                           .name = name,
                           .layer = layer,
                           .start = start,
                           .end = start,
                           .pu = pu};
    return span;
}

void
Tracer::close(OpenSpan &span)
{
    span.rec.end = now();
    push(span.rec);
    spareOpen_.put(&span);
}

} // namespace molecule::obs
