#include "obs/flight_recorder.hh"

#include <algorithm>
#include <cstdio>

#include "obs/metrics_export.hh"
#include "obs/trace.hh"

namespace molecule::obs {

namespace {

std::string
fmtInt(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return buf;
}

std::string
fmtMilli(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Escape a (short, mostly-identifier) string for a JSON literal. */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

FlightRecorder::FlightRecorder(TimeSeries &ts,
                               FlightRecorderOptions options)
    : ts_(ts), opts_(options)
{
    ts_.addListener(this);
}

void
FlightRecorder::onWindow(const TimeSeries &ts, const WindowRecord &w)
{
    (void)ts;
    ring_.push_back(w);
    while (ring_.size() > std::max<std::size_t>(1, opts_.keepWindows))
        ring_.pop_front();
}

void
FlightRecorder::onAlert(const AlertEvent &a)
{
    alerts_.push_back(a);
    while (alerts_.size() > std::max<std::size_t>(1, opts_.keepAlerts))
        alerts_.pop_front();
}

void
FlightRecorder::trigger(std::string_view reason, sim::SimTime at)
{
    ++triggers_;
    if (dumps_.size() >= opts_.maxDumps)
        return;

    std::string out = "{\"reason\":\"" + jsonEscape(reason) +
                      "\",\"at_ns\":" + fmtInt(at.raw()) +
                      ",\"trigger\":" + fmtInt(std::int64_t(triggers_)) +
                      ",\"windows\":[";
    bool first = true;
    for (const WindowRecord &w : ring_) {
        if (!first)
            out += ",";
        first = false;
        out += windowJson(ts_, w);
    }
    out += "],\"alerts\":[";
    first = true;
    for (const AlertEvent &a : alerts_) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"at_ns\":" + fmtInt(a.at.raw()) +
               ",\"window\":" + fmtInt(std::int64_t(a.window)) +
               ",\"tenant\":" + fmtInt(a.tenant) +
               ",\"objective\":" + fmtInt(a.objective) +
               ",\"fired\":" + (a.fired ? "true" : "false") +
               ",\"burn_short\":" + fmtMilli(a.burnShort) +
               ",\"burn_long\":" + fmtMilli(a.burnLong) + "}";
    }
    out += "],\"spans\":[";
    if (tracer_ != nullptr && opts_.spanTail > 0) {
        const SpanBuffer &recs = tracer_->records();
        const std::size_t n = recs.size();
        const std::size_t from =
            n > opts_.spanTail ? n - opts_.spanTail : 0;
        first = true;
        for (std::size_t i = from; i < n; ++i) {
            const SpanRecord &r = recs[i];
            if (!first)
                out += ",";
            first = false;
            out += "{\"name\":\"" + jsonEscape(r.name) +
                   "\",\"layer\":\"" + toString(r.layer) +
                   "\",\"start_ns\":" + fmtInt(r.start) +
                   ",\"end_ns\":" + fmtInt(r.end) +
                   ",\"pu\":" + fmtInt(r.pu) +
                   ",\"arg\":" + fmtInt(r.arg);
            if (r.detail[0] != '\0')
                out += ",\"detail\":\"" + jsonEscape(r.detail) + "\"";
            out += "}";
        }
    }
    out += "]}";
    dumps_.push_back(std::move(out));
}

bool
FlightRecorder::writeLast(const std::string &path) const
{
    if (dumps_.empty())
        return false;
    return writeText(path, dumps_.back());
}

} // namespace molecule::obs
