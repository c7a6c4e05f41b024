#include "obs/export.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>

namespace molecule::obs {

namespace {

/** pid used for spans not bound to a PU (tracks named "runtime"). */
constexpr int kRuntimePid = 1000;

int
pidOf(const SpanRecord &rec)
{
    return rec.pu >= 0 ? rec.pu : kRuntimePid;
}

int
tidOf(const SpanRecord &rec)
{
    return int(rec.layer);
}

void
appendEscaped(std::string &out, const char *s)
{
    for (; *s != '\0'; ++s) {
        const unsigned char c = static_cast<unsigned char>(*s);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min(std::size_t(n), sizeof(buf) - 1));
}

/** Sim-time ns -> trace-event microseconds, fixed precision. */
void
appendTsUs(std::string &out, std::int64_t ns)
{
    appendf(out, "%" PRId64 ".%03d", ns / 1000, int(ns % 1000));
}

/** Per-trace summary used for async + flow events. */
struct TraceGroup
{
    const SpanRecord *root = nullptr;
    std::int64_t minStart = 0;
    std::int64_t maxEnd = 0;
    /** Record indices, in record (i.e. finish) order. */
    std::vector<std::size_t> members;
};

} // namespace

std::string
chromeTraceJson(const std::vector<SpanRecord> &records)
{
    std::string out;
    out.reserve(records.size() * 200 + 1024);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto sep = [&out, &first] {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Metadata: one "process" per PU (plus "runtime"), one "thread"
    // per layer within it. Ordered maps keep the output deterministic.
    std::map<int, std::map<int, const char *>> tracks;
    for (const SpanRecord &rec : records)
        tracks[pidOf(rec)][tidOf(rec)] = toString(rec.layer);
    for (const auto &[pid, tids] : tracks) {
        sep();
        out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
        appendf(out, "%d", pid);
        out += ",\"args\":{\"name\":\"";
        if (pid == kRuntimePid)
            out += "runtime";
        else
            appendf(out, "pu%d", pid);
        out += "\"}}";
        for (const auto &[tid, layerName] : tids) {
            sep();
            appendf(out,
                    "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                    "\"tid\":%d,\"args\":{\"name\":\"",
                    pid, tid);
            out += layerName;
            out += "\"}}";
        }
    }

    // Complete ("X") events, one per span, in record order.
    for (const SpanRecord &rec : records) {
        sep();
        out += "{\"ph\":\"X\",\"name\":\"";
        appendEscaped(out, rec.name);
        out += "\",\"cat\":\"";
        out += toString(rec.layer);
        appendf(out, "\",\"pid\":%d,\"tid\":%d,\"ts\":", pidOf(rec),
                tidOf(rec));
        appendTsUs(out, rec.start);
        out += ",\"dur\":";
        appendTsUs(out, rec.end - rec.start);
        appendf(out,
                ",\"args\":{\"trace\":\"%016" PRIx64
                "\",\"span\":%" PRIu64 ",\"parent\":%" PRIu64,
                rec.traceId, rec.spanId, rec.parentId);
        if (rec.arg != 0)
            appendf(out, ",\"arg\":%" PRId64, rec.arg);
        if (rec.detail[0] != '\0') {
            out += ",\"detail\":\"";
            appendEscaped(out, rec.detail);
            out += "\"";
        }
        out += "}}";
    }

    // Group spans by trace for the async envelope and flow stitching.
    std::map<std::uint64_t, TraceGroup> traces;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SpanRecord &rec = records[i];
        if (rec.traceId == 0)
            continue;
        TraceGroup &g = traces[rec.traceId];
        if (g.members.empty()) {
            g.minStart = rec.start;
            g.maxEnd = rec.end;
        } else {
            g.minStart = std::min(g.minStart, rec.start);
            g.maxEnd = std::max(g.maxEnd, rec.end);
        }
        if (rec.parentId == 0 && g.root == nullptr)
            g.root = &rec;
        g.members.push_back(i);
    }

    for (const auto &[traceId, g] : traces) {
        const SpanRecord *root = g.root;
        if (root == nullptr)
            root = &records[g.members.front()];
        const char *rootName = root->name;

        // Async envelope: one "b"/"e" pair spanning the whole trace,
        // so Perfetto shows each invocation as a single async track.
        sep();
        out += "{\"ph\":\"b\",\"cat\":\"invocation\",\"name\":\"";
        appendEscaped(out, rootName);
        appendf(out, "\",\"id\":\"%016" PRIx64 "\",\"pid\":%d,\"tid\":%d,"
                     "\"ts\":",
                traceId, pidOf(*root), tidOf(*root));
        appendTsUs(out, g.minStart);
        out += "}";
        sep();
        out += "{\"ph\":\"e\",\"cat\":\"invocation\",\"name\":\"";
        appendEscaped(out, rootName);
        appendf(out, "\",\"id\":\"%016" PRIx64 "\",\"pid\":%d,\"tid\":%d,"
                     "\"ts\":",
                traceId, pidOf(*root), tidOf(*root));
        appendTsUs(out, g.maxEnd);
        out += "}";

        // Flow: "s" at the root, a "t" step each time the trace moves
        // to a different PU (in span start order), "f" back at the
        // root's end. Visualizes the causal path across PUs.
        std::vector<std::size_t> byStart = g.members;
        std::sort(byStart.begin(), byStart.end(),
                  [&records](std::size_t a, std::size_t b) {
                      if (records[a].start != records[b].start)
                          return records[a].start < records[b].start;
                      return records[a].spanId < records[b].spanId;
                  });
        sep();
        out += "{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"";
        appendEscaped(out, rootName);
        appendf(out, "\",\"id\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
                     "\"ts\":",
                traceId, pidOf(*root), tidOf(*root));
        appendTsUs(out, root->start);
        out += "}";
        int lastPid = pidOf(*root);
        for (std::size_t idx : byStart) {
            const SpanRecord &rec = records[idx];
            if (pidOf(rec) == lastPid)
                continue;
            lastPid = pidOf(rec);
            sep();
            out += "{\"ph\":\"t\",\"cat\":\"flow\",\"name\":\"";
            appendEscaped(out, rootName);
            appendf(out, "\",\"id\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
                         "\"ts\":",
                    traceId, pidOf(rec), tidOf(rec));
            appendTsUs(out, rec.start);
            out += "}";
        }
        sep();
        out += "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"";
        appendEscaped(out, rootName);
        appendf(out, "\",\"id\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
                     "\"ts\":",
                traceId, pidOf(*root), tidOf(*root));
        appendTsUs(out, root->end);
        out += "}";
    }

    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const std::string json = chromeTraceJson(records);
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

namespace {

/** Little-endian field writers: the binary format is host-independent. */
bool
putBytes(std::FILE *f, const void *p, std::size_t n)
{
    return std::fwrite(p, 1, n, f) == n;
}

bool
putU64(std::FILE *f, std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = (v >> (i * 8)) & 0xff;
    return putBytes(f, b, sizeof(b));
}

bool
putU32(std::FILE *f, std::uint32_t v)
{
    unsigned char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = (v >> (i * 8)) & 0xff;
    return putBytes(f, b, sizeof(b));
}

bool
putI64(std::FILE *f, std::int64_t v)
{
    return putU64(f, static_cast<std::uint64_t>(v));
}

bool
getBytes(std::FILE *f, void *p, std::size_t n)
{
    return std::fread(p, 1, n, f) == n;
}

bool
getU64(std::FILE *f, std::uint64_t &v)
{
    unsigned char b[8];
    if (!getBytes(f, b, sizeof(b)))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(b[i]) << (i * 8);
    return true;
}

bool
getU32(std::FILE *f, std::uint32_t &v)
{
    unsigned char b[4];
    if (!getBytes(f, b, sizeof(b)))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(b[i]) << (i * 8);
    return true;
}

bool
getI64(std::FILE *f, std::int64_t &v)
{
    std::uint64_t u = 0;
    if (!getU64(f, u))
        return false;
    v = static_cast<std::int64_t>(u);
    return true;
}

constexpr char kMagic[8] = {'M', 'O', 'L', 'T', 'R', 'C', '0', '1'};

} // namespace

bool
writeBinary(const std::string &path,
            const std::vector<SpanRecord> &records)
{
    // Name table in first-use order (keyed by value, not pointer, so
    // the layout is independent of where string literals landed).
    std::map<std::string, std::uint32_t> nameIndex;
    std::vector<const char *> names;
    std::vector<std::uint32_t> recNames;
    recNames.reserve(records.size());
    for (const SpanRecord &rec : records) {
        auto [it, inserted] = nameIndex.try_emplace(
            rec.name, std::uint32_t(names.size()));
        if (inserted)
            names.push_back(rec.name);
        recNames.push_back(it->second);
    }

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    bool ok = putBytes(f, kMagic, sizeof(kMagic));
    ok = ok && putU64(f, records.size());
    ok = ok && putU32(f, std::uint32_t(names.size()));
    for (const char *name : names) {
        const std::uint32_t len = std::uint32_t(std::strlen(name));
        ok = ok && putU32(f, len) && putBytes(f, name, len);
    }
    for (std::size_t i = 0; ok && i < records.size(); ++i) {
        const SpanRecord &rec = records[i];
        ok = ok && putU64(f, rec.traceId) && putU64(f, rec.spanId) &&
             putU64(f, rec.parentId) && putU32(f, recNames[i]) &&
             putU32(f, std::uint32_t(std::uint8_t(rec.layer))) &&
             putI64(f, rec.start) && putI64(f, rec.end) &&
             putI64(f, std::int64_t(rec.pu)) && putI64(f, rec.arg) &&
             putBytes(f, rec.detail, sizeof(rec.detail));
    }
    return std::fclose(f) == 0 && ok;
}

LoadedTrace
readBinary(const std::string &path)
{
    LoadedTrace out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        out.error = "cannot open " + path;
        return out;
    }
    char magic[8];
    std::uint64_t count = 0;
    std::uint32_t nameCount = 0;
    if (!getBytes(f, magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        out.error = "bad magic (not a molecule binary trace)";
        std::fclose(f);
        return out;
    }
    if (!getU64(f, count) || !getU32(f, nameCount)) {
        out.error = "truncated header";
        std::fclose(f);
        return out;
    }
    out.names.reserve(nameCount);
    for (std::uint32_t i = 0; i < nameCount; ++i) {
        std::uint32_t len = 0;
        if (!getU32(f, len) || len > 4096) {
            out.error = "truncated name table";
            std::fclose(f);
            return out;
        }
        std::string name(len, '\0');
        if (len != 0 && !getBytes(f, name.data(), len)) {
            out.error = "truncated name table";
            std::fclose(f);
            return out;
        }
        out.names.push_back(std::move(name));
    }
    out.records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        SpanRecord rec;
        std::uint32_t nameIdx = 0;
        std::uint32_t layer = 0;
        std::int64_t pu = -1;
        const bool ok =
            getU64(f, rec.traceId) && getU64(f, rec.spanId) &&
            getU64(f, rec.parentId) && getU32(f, nameIdx) &&
            getU32(f, layer) && getI64(f, rec.start) &&
            getI64(f, rec.end) && getI64(f, pu) && getI64(f, rec.arg) &&
            getBytes(f, rec.detail, sizeof(rec.detail));
        if (!ok || nameIdx >= out.names.size() ||
            layer > std::uint32_t(Layer::Hw)) {
            out.error = "truncated or corrupt record section";
            std::fclose(f);
            return out;
        }
        rec.detail[sizeof(rec.detail) - 1] = '\0';
        rec.name = out.names[nameIdx].c_str();
        rec.layer = Layer(std::uint8_t(layer));
        rec.pu = std::int32_t(pu);
        out.records.push_back(rec);
    }
    std::fclose(f);
    out.ok = true;
    return out;
}

// Arena-buffer overloads: exporting is an end-of-run (cold) path, so
// the snapshot copy is the simple, lifetime-correct choice — the
// output must survive the simulation that owns the arena.

std::string
chromeTraceJson(const SpanBuffer &records)
{
    return chromeTraceJson(records.snapshot());
}

bool
writeChromeTrace(const std::string &path, const SpanBuffer &records)
{
    return writeChromeTrace(path, records.snapshot());
}

bool
writeBinary(const std::string &path, const SpanBuffer &records)
{
    return writeBinary(path, records.snapshot());
}

} // namespace molecule::obs
