#include "sim/analysis.hh"

#include <algorithm>
#include <cstring>

namespace molecule::sim::analysis {

namespace {

thread_local AccessLog *tlsCurrentLog = nullptr;

/** Deterministic ordering for the conflict scan: group accesses to one
 * cell at one instant together, then order by firing (seq) order. The
 * cell pointer participates only to separate same-named cells; report
 * order stays stable because groups are primarily keyed by (when,
 * name). */
bool
scanOrder(const AccessRecord &x, const AccessRecord &y)
{
    if (x.when != y.when)
        return x.when < y.when;
    if (const int c = std::strcmp(x.cellName, y.cellName))
        return c < 0;
    if (x.cell != y.cell)
        return x.cell < y.cell;
    return x.eventSeq < y.eventSeq;
}

} // namespace

const char *
toString(AccessKind k)
{
    return k == AccessKind::Write ? "write" : "read";
}

std::string
describe(const Conflict &c)
{
    auto side = [](const AccessRecord &r) {
        std::string s = toString(r.kind);
        s += " at ";
        s += r.file;
        s += ":";
        s += std::to_string(r.line);
        s += " (";
        s += r.function;
        s += ", event #";
        s += std::to_string(r.eventSeq);
        s += " scheduled@";
        s += std::to_string(r.schedAt);
        s += "ns)";
        return s;
    };
    std::string out = "same-tick conflict on '";
    out += c.cellName;
    out += "' @ ";
    out += std::to_string(c.when);
    out += "ns:\n  ";
    out += side(c.a);
    out += "\n  ";
    out += side(c.b);
    out += "\n  order decided only by the schedule-sequence tie-break";
    return out;
}

AccessLog::AccessLog(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    ring_.reserve(std::min(capacity_, std::size_t(4096)));
}

void
AccessLog::noteScheduled(std::uint64_t seq, std::int64_t at)
{
    pendingSchedAt_[seq] = at;
}

void
AccessLog::dropScheduled(std::uint64_t seq)
{
    pendingSchedAt_.erase(seq);
}

void
AccessLog::beginEvent(std::int64_t when, std::uint64_t seq)
{
    curWhen_ = when;
    curSeq_ = seq;
    const auto it = pendingSchedAt_.find(seq);
    if (it == pendingSchedAt_.end()) {
        // Scheduled before tracking was enabled (or directly on the
        // EventQueue): treat as same-instant so it never reports.
        curSchedAt_ = when;
    } else {
        curSchedAt_ = it->second;
        pendingSchedAt_.erase(it);
    }
}

void
AccessLog::record(const void *cell, const char *cellName, AccessKind kind,
                  const std::source_location &loc)
{
    AccessRecord r;
    r.cell = cell;
    r.cellName = cellName;
    r.when = curWhen_;
    r.eventSeq = curSeq_;
    r.schedAt = curSchedAt_;
    r.kind = kind;
    r.file = loc.file_name();
    r.function = loc.function_name();
    r.line = loc.line();
    if (count_ < capacity_) {
        ring_.push_back(r);
        ++count_;
    } else {
        ring_[head_] = r;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
}

std::vector<AccessRecord>
AccessLog::snapshot() const
{
    std::vector<AccessRecord> out;
    out.reserve(count_);
    // Oldest first: [head_, end) then [0, head_).
    for (std::size_t i = head_; i < count_; ++i)
        out.push_back(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i)
        out.push_back(ring_[i]);
    return out;
}

std::vector<Conflict>
AccessLog::findConflicts() const
{
    std::vector<AccessRecord> recs = snapshot();
    std::stable_sort(recs.begin(), recs.end(), scanOrder);

    std::vector<Conflict> out;
    std::size_t lo = 0;
    while (lo < recs.size() && out.size() < kMaxConflicts) {
        // One group: same cell, same instant.
        std::size_t hi = lo + 1;
        while (hi < recs.size() && recs[hi].when == recs[lo].when &&
               recs[hi].cell == recs[lo].cell)
            ++hi;
        // First qualifying pair in firing order: different events,
        // at least one write, both events pre-scheduled (the causality
        // filter drops same-instant wakeup chains).
        [&] {
            for (std::size_t i = lo; i < hi; ++i) {
                if (recs[i].schedAt >= recs[i].when)
                    continue;
                for (std::size_t j = i + 1; j < hi; ++j) {
                    if (recs[j].eventSeq == recs[i].eventSeq)
                        continue;
                    if (recs[j].schedAt >= recs[j].when)
                        continue;
                    if (recs[i].kind != AccessKind::Write &&
                        recs[j].kind != AccessKind::Write)
                        continue;
                    Conflict c;
                    c.cellName = recs[lo].cellName;
                    c.when = recs[lo].when;
                    c.a = recs[i];
                    c.b = recs[j];
                    out.push_back(c);
                    return;
                }
            }
        }();
        lo = hi;
    }
    return out;
}

void
AccessLog::clear()
{
    ring_.clear();
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
    pendingSchedAt_.clear();
    curWhen_ = 0;
    curSeq_ = 0;
    curSchedAt_ = 0;
}

AccessLog *
AccessLog::current()
{
    return tlsCurrentLog;
}

AccessLog::Scope::Scope(AccessLog *log) : prev_(tlsCurrentLog)
{
    tlsCurrentLog = log;
}

AccessLog::Scope::~Scope()
{
    tlsCurrentLog = prev_;
}

} // namespace molecule::sim::analysis
