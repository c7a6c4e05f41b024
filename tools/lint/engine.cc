#include "engine.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "packs.hh"

namespace molecule::lint {

namespace fs = std::filesystem;

void
Registry::add(std::unique_ptr<Rule> rule)
{
    rules_.push_back(std::move(rule));
}

std::vector<std::string>
Registry::packs() const
{
    std::vector<std::string> out;
    for (const auto &r : rules_) {
        if (std::find(out.begin(), out.end(), r->pack()) == out.end())
            out.push_back(r->pack());
    }
    return out;
}

Registry
makeRegistry()
{
    Registry registry;
    registerSimPurity(registry);
    registerLifetime(registry);
    registerErrorDiscard(registry);
    registerLayering(registry);
    return registry;
}

// ---------------------------------------------------------------------
// Project tables
// ---------------------------------------------------------------------

namespace {

/**
 * Harvest names of callables returning core::Status or
 * core::Expected<T>, directly or wrapped in sim::Task<...>. Works on
 * the stripped text: find the type word, skip to the end of its
 * template/nesting suffix, then accept `qualified::name (`.
 */
void
harvestOutcomeCallables(const SourceFile &f, std::set<std::string> &out)
{
    const std::string &code = f.code;
    for (const char *type : {"Status", "Expected"}) {
        for (std::size_t pos : findWord(code, type)) {
            std::size_t k = pos + std::strlen(type);
            // Skip a template argument list (Expected<T>).
            if (k < code.size() && code[k] == '<') {
                int depth = 0;
                for (; k < code.size(); ++k) {
                    if (code[k] == '<')
                        ++depth;
                    else if (code[k] == '>' && --depth == 0) {
                        ++k;
                        break;
                    }
                }
            }
            // Skip closers of enclosing wrappers (sim::Task<...>),
            // references, and whitespace between type and name.
            while (k < code.size() &&
                   (code[k] == '>' || code[k] == '&' || code[k] == ' ' ||
                    code[k] == '\t' || code[k] == '\n'))
                ++k;
            // Read a possibly qualified identifier chain.
            std::string last;
            bool any = false;
            for (;;) {
                std::size_t b = k;
                while (k < code.size() && identChar(code[k]))
                    ++k;
                if (k == b)
                    break;
                last = code.substr(b, k - b);
                any = true;
                if (k + 1 < code.size() && code[k] == ':' &&
                    code[k + 1] == ':')
                    k += 2;
                else
                    break;
            }
            if (!any)
                continue;
            while (k < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[k])))
                ++k;
            if (k >= code.size() || code[k] != '(')
                continue;
            // `Status s(...)`-style locals are indistinguishable from
            // declarations here; single-letter names are overwhelmingly
            // locals, so skip them to keep the callable table clean.
            if (last.size() >= 2)
                out.insert(last);
        }
    }
}

/**
 * Mark harvested names that are ALSO declared with a non-outcome
 * return type somewhere in the tree. Matching is name-based, so a
 * generic name like `invoke` declared both as `Task<core::Status>
 * invoke(...)` (runc) and `Task<> invoke(...)` (runf, FpgaDevice)
 * cannot be attributed to a receiver in AST-lite; flagging every bare
 * `x.invoke(...);` would drown real discards in false positives.
 * Only names whose every declaration returns an outcome type stay in
 * the callable table.
 */
void
markAmbiguousCallables(const SourceFile &f,
                       const std::set<std::string> &names,
                       std::set<std::string> &ambiguous)
{
    static const std::set<std::string> kUseKeywords{
        "return", "co_return", "co_await", "co_yield", "else",
        "do",     "throw",     "delete",   "new",      "goto",
    };
    const std::string &code = f.code;
    for (const auto &name : names) {
        for (std::size_t pos : findWord(code, name)) {
            std::size_t open = pos + name.size();
            while (open < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[open])))
                ++open;
            if (open >= code.size() || code[open] != '(')
                continue;
            // Statement prefix up to the name.
            std::size_t b = pos;
            while (b > 0) {
                const char c = code[b - 1];
                if (c == ';' || c == '{' || c == '}')
                    break;
                --b;
            }
            std::string prefix = code.substr(b, pos - b);
            while (!prefix.empty() &&
                   std::isspace(
                       static_cast<unsigned char>(prefix.back())))
                prefix.pop_back();
            if (prefix.empty())
                continue; // bare call
            const char tail = prefix.back();
            // Declaration-like: the name is preceded by a type
            // (identifier or a closed template argument list). `->`
            // is a member call; `.`/`::` are access paths; anything
            // else (operators, parens) is an expression.
            const bool typeTail =
                identChar(tail) ||
                (tail == '>' && prefix.size() >= 2 &&
                 prefix[prefix.size() - 2] != '-');
            if (!typeTail)
                continue;
            if (identChar(tail)) {
                std::size_t w = prefix.size();
                while (w > 0 && identChar(prefix[w - 1]))
                    --w;
                if (kUseKeywords.count(prefix.substr(w)))
                    continue; // `return name(...)` — a use
            }
            // The prefix is the declared return type (plus
            // specifiers); no outcome type in it => ambiguous name.
            if (findWord(prefix, "Status").empty() &&
                findWord(prefix, "Expected").empty())
                ambiguous.insert(name);
        }
    }
}

/**
 * Data-member declarations of the class body @p body (the text between
 * its braces): depth-0 statements, minus member functions, nested
 * bodies, static members and aliases.
 */
std::vector<std::string>
memberDecls(const std::string &body)
{
    static const std::set<std::string> kNotData{"static", "using",
                                                "typedef", "friend"};
    std::vector<std::string> out;
    std::string cur;
    bool function = false; // a '(' before any '=' at depth 0
    bool assigned = false;
    int paren = 0;
    int brace = 0;
    int angle = 0;
    const auto end = [&] {
        std::size_t b = 0;
        while (b < cur.size() && !identChar(cur[b]))
            ++b;
        std::size_t e = b;
        while (e < cur.size() && identChar(cur[e]))
            ++e;
        if (!function && e > b && !kNotData.count(cur.substr(b, e - b)))
            out.push_back(cur);
        cur.clear();
        function = assigned = false;
        angle = 0;
    };
    for (std::size_t i = 0; i < body.size(); ++i) {
        const char c = body[i];
        if (c == '(') {
            if (paren++ == 0 && brace == 0 && angle == 0 && !assigned)
                function = true;
            continue;
        }
        if (c == ')') {
            --paren;
            continue;
        }
        if (paren > 0)
            continue;
        if (c == '{') {
            ++brace;
            continue;
        }
        if (c == '}') {
            if (--brace == 0)
                end();
            continue;
        }
        if (brace > 0)
            continue;
        if (c == ';') {
            end();
        } else if (c == ':' && body.compare(i, 2, "::") != 0 &&
                   (i == 0 || body[i - 1] != ':')) {
            cur.clear(); // an access label (`public:`)
        } else {
            if (c == '<')
                ++angle;
            else if (c == '>' && angle > 0)
                --angle;
            else if (c == '=')
                assigned = true;
            cur += c;
        }
    }
    return out;
}

/** (name, data-member declarations) of every class defined in @p code. */
void
collectClasses(
    const std::string &code,
    std::vector<std::pair<std::string, std::vector<std::string>>> &out)
{
    for (const char *kw : {"struct", "class"}) {
        for (std::size_t pos : findWord(code, kw)) {
            std::size_t k = pos + std::strlen(kw);
            const auto skipSpace = [&] {
                while (k < code.size() &&
                       std::isspace(static_cast<unsigned char>(code[k])))
                    ++k;
            };
            skipSpace();
            const std::size_t b = k;
            while (k < code.size() && identChar(code[k]))
                ++k;
            if (k == b)
                continue;
            const std::string name = code.substr(b, k - b);
            // `enum class E` is no class; skip past a base clause.
            const std::size_t before = code.rfind("enum", pos);
            if (before != std::string::npos &&
                code.find_first_not_of(" \t\n", before + 4) == pos)
                continue;
            skipSpace();
            if (code.compare(k, 5, "final") == 0) {
                k += 5;
                skipSpace();
            }
            if (k < code.size() && code[k] == ':' &&
                code.compare(k, 2, "::") != 0)
                k = code.find_first_of("{;", k);
            if (k >= code.size() || code[k] != '{')
                continue;
            const std::size_t close = matchBracket(code, k);
            if (close == std::string::npos)
                continue;
            out.emplace_back(name,
                             memberDecls(code.substr(k + 1, close - k - 2)));
        }
    }
}

/** Fill Project::owningTypes, to a fixpoint over nested members. */
void
harvestOwningTypes(const std::vector<SourceFile> &files,
                   std::set<std::string> &out)
{
    std::vector<std::pair<std::string, std::vector<std::string>>> classes;
    for (const auto &f : files)
        collectClasses(f.code, classes);
    for (bool grew = true; grew;) {
        grew = false;
        for (const auto &[name, members] : classes) {
            if (out.count(name) != 0)
                continue;
            for (const std::string &m : members) {
                if (ownsByValue(m, out)) {
                    out.insert(name);
                    grew = true;
                    break;
                }
            }
        }
    }
}

/** Canonical module layering ranks (DESIGN.md §7). */
std::map<std::string, int>
layeringRanks()
{
    return {
        {"sim", 0},       // DES kernel: depends on nothing
        {"obs", 1},       // pure recording over sim time
        {"hw", 2},        {"os", 3},     {"xpu", 4},
        {"sandbox", 5},   // runc/runf/rung over os+hw
        {"workloads", 6}, // calibrated cost models over sandbox images
        {"load", 7},      // open-loop stream generator over sim only
        {"core", 8},      // control plane composing everything below
        {"fault", 9},     // chaos layer: hooks into every layer
        {"cluster", 10},  // fleet + gateway over core and load
    };
}

/** Cross-cutting vocabulary headers includable from any layer. */
std::set<std::string>
layeringExemptHeaders()
{
    return {
        // Typed-outcome vocabulary; self-contained by design (see the
        // header's own preamble: std-only, no link-time dependency).
        "core/status.hh",
        // Header-only fault-window state every layer attaches hooks to.
        "fault/state.hh",
    };
}

Project
buildProject(const std::vector<SourceFile> &files)
{
    Project p;
    p.moduleRank = layeringRanks();
    p.exemptHeaders = layeringExemptHeaders();
    for (const auto &f : files)
        harvestOutcomeCallables(f, p.outcomeCallables);
    std::set<std::string> ambiguous;
    for (const auto &f : files)
        markAmbiguousCallables(f, p.outcomeCallables, ambiguous);
    for (const auto &name : ambiguous)
        p.outcomeCallables.erase(name);
    harvestOwningTypes(files, p.owningTypes);
    return p;
}

// ---------------------------------------------------------------------
// File collection
// ---------------------------------------------------------------------

bool
scannableExtension(const fs::path &p)
{
    static const std::set<std::string> kExts{".hh", ".cc", ".hpp",
                                             ".cpp", ".h"};
    return kExts.count(p.extension().string()) != 0;
}

/**
 * Trees skipped during recursive traversal: benchmarks legitimately
 * read host clocks, lint fixtures are violations on purpose, build
 * trees hold generated/vendored sources. A root that itself points
 * inside such a tree is still scanned (that is how the fixture ctests
 * drive the engine).
 */
bool
skippedSubtree(const std::string &generic)
{
    return generic.find("/bench/") != std::string::npos ||
           generic.rfind("bench/", 0) == 0 ||
           generic.find("lint/fixtures") != std::string::npos ||
           generic.find("/build") != std::string::npos ||
           generic.find("/.git/") != std::string::npos;
}

std::vector<SourceFile>
loadFiles(const Options &opts, std::size_t &filesScanned)
{
    std::vector<SourceFile> out;
    std::set<std::string> seen; // canonical paths: scan once
    for (const auto &root : opts.roots) {
        std::vector<fs::path> paths;
        const bool rootInsideSkipped =
            skippedSubtree(fs::path(root).generic_string() + "/");
        if (fs::is_directory(root)) {
            for (const auto &e : fs::recursive_directory_iterator(root)) {
                if (!e.is_regular_file() ||
                    !scannableExtension(e.path()))
                    continue;
                if (!rootInsideSkipped &&
                    skippedSubtree(e.path().generic_string()))
                    continue;
                paths.push_back(e.path());
            }
        } else {
            paths.push_back(root);
        }
        std::sort(paths.begin(), paths.end());
        for (const auto &p : paths) {
            std::error_code ec;
            fs::path canon = fs::weakly_canonical(p, ec);
            const std::string key =
                ec ? p.generic_string() : canon.generic_string();
            if (!seen.insert(key).second)
                continue; // same file reached through two roots
            std::ifstream in(p);
            std::stringstream ss;
            ss << in.rdbuf();
            out.push_back(prepare(p.generic_string(), ss.str()));
            ++filesScanned;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
renderHuman(std::FILE *to, const Result &r)
{
    for (const auto &f : r.findings) {
        std::fprintf(to, "%s:%zu: [%s/%s] %s\n", f.path.c_str(), f.line,
                     f.pack.c_str(), f.rule.c_str(), f.message.c_str());
    }
    std::fprintf(to, "molecule-lint: %zu file(s), %zu finding(s)\n",
                 r.filesScanned, r.findings.size());
}

void
renderSarif(std::FILE *to, const Registry &registry, const Result &r)
{
    std::fprintf(to,
                 "{\n"
                 "  \"$schema\": \"https://raw.githubusercontent.com/"
                 "oasis-tcs/sarif-spec/master/Schemata/"
                 "sarif-schema-2.1.0.json\",\n"
                 "  \"version\": \"2.1.0\",\n"
                 "  \"runs\": [\n"
                 "    {\n"
                 "      \"tool\": {\n"
                 "        \"driver\": {\n"
                 "          \"name\": \"molecule-lint\",\n"
                 "          \"informationUri\": "
                 "\"DESIGN.md#7-static-analysis-architecture\",\n"
                 "          \"rules\": [");
    const auto &rules = registry.rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        std::fprintf(to,
                     "%s\n            {\"id\": \"%s\", "
                     "\"shortDescription\": {\"text\": \"%s\"}, "
                     "\"properties\": {\"pack\": \"%s\"}}",
                     i ? "," : "", jsonEscape(rules[i]->id()).c_str(),
                     jsonEscape(rules[i]->summary()).c_str(),
                     jsonEscape(rules[i]->pack()).c_str());
    }
    std::fprintf(to,
                 "\n          ]\n"
                 "        }\n"
                 "      },\n"
                 "      \"results\": [");
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const auto &f = r.findings[i];
        std::fprintf(
            to,
            "%s\n        {\n"
            "          \"ruleId\": \"%s\",\n"
            "          \"level\": \"error\",\n"
            "          \"message\": {\"text\": \"%s\"},\n"
            "          \"locations\": [\n"
            "            {\"physicalLocation\": {\"artifactLocation\": "
            "{\"uri\": \"%s\"}, \"region\": {\"startLine\": %zu}}}\n"
            "          ]\n"
            "        }",
            i ? "," : "", jsonEscape(f.rule).c_str(),
            jsonEscape(f.message).c_str(), jsonEscape(f.path).c_str(),
            f.line ? f.line : 1);
    }
    std::fprintf(to,
                 "\n      ]\n"
                 "    }\n"
                 "  ]\n"
                 "}\n");
}

/**
 * Sort into stable (path, line, rule, message) order and drop exact
 * duplicates — the fix for PR 2's lint_determinism printing the same
 * violation once per include path / overlapping pattern.
 */
void
finalizeFindings(std::vector<Finding> &all)
{
    std::sort(all.begin(), all.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule, a.message) <
                         std::tie(b.path, b.line, b.rule, b.message);
              });
    all.erase(std::unique(all.begin(), all.end(),
                          [](const Finding &a, const Finding &b) {
                              return a.path == b.path &&
                                     a.line == b.line &&
                                     a.rule == b.rule &&
                                     a.message == b.message;
                          }),
              all.end());
}

} // namespace

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::vector<Finding>
runOnBuffers(const Registry &registry, const std::set<std::string> &packs,
             const std::vector<std::pair<std::string, std::string>> &files)
{
    std::vector<SourceFile> prepared;
    prepared.reserve(files.size());
    for (const auto &[path, content] : files)
        prepared.push_back(prepare(path, content));
    const Project project = buildProject(prepared);

    std::vector<Finding> out;
    for (const auto &f : prepared) {
        for (const auto &rule : registry.rules()) {
            if (!packs.empty() && !packs.count(rule->pack()))
                continue;
            if (!rule->inScope(f.path))
                continue;
            rule->run(project, f, out);
        }
    }
    finalizeFindings(out);
    return out;
}

Result
run(const Registry &registry, const Options &opts)
{
    Result r;
    const std::vector<SourceFile> files = loadFiles(opts, r.filesScanned);
    const Project project = buildProject(files);

    std::vector<Finding> all;
    for (const auto &f : files) {
        for (const auto &rule : registry.rules()) {
            if (!opts.packs.empty() && !opts.packs.count(rule->pack()))
                continue;
            if (!rule->inScope(f.path))
                continue;
            rule->run(project, f, all);
        }
    }

    finalizeFindings(all);

    r.findings = std::move(all);
    r.exitCode = r.findings.empty() ? 0 : 1;
    return r;
}

void
render(const Registry &registry, const Options &opts, const Result &r)
{
    std::FILE *to = stdout;
    if (!opts.output.empty()) {
        to = std::fopen(opts.output.c_str(), "w");
        if (!to) {
            std::fprintf(stderr, "molecule-lint: cannot write %s\n",
                         opts.output.c_str());
            to = stdout;
        }
    }
    switch (opts.format) {
    case Format::Human:
        renderHuman(to, r);
        break;
    case Format::Sarif:
        renderSarif(to, registry, r);
        break;
    }
    if (to != stdout) {
        std::fclose(to);
        // Keep CI logs readable even when the report goes to a file.
        std::fprintf(stderr,
                     "molecule-lint: %zu file(s), %zu finding(s) -> %s\n",
                     r.filesScanned, r.findings.size(),
                     opts.output.c_str());
    }
}

} // namespace molecule::lint
