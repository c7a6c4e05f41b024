/**
 * @file
 * lifetime pack: dangling-reference hazards specific to this codebase.
 *
 *  - ref-capture-escape: a lambda with a by-reference capture handed
 *    to schedule()/scheduleBatch()/spawn(). The callback runs at a
 *    later simulated instant, long after the capturing frame returned;
 *    DES callbacks capture by value (or `this`) only.
 *
 *  - arena-escape: a pointer obtained from sim::Arena (create /
 *    allocate / allocateArray) or a reference into obs::SpanBuffer
 *    (front / back / operator[]) used after the owning object's
 *    reset()/clear()/dropOldest() — the copy-out-before-reset rule of
 *    DESIGN.md §4d. Scanning is per function body, source-object
 *    matched; a rebinding assignment after the reset ends the hazard.
 *
 *  - view-of-temporary: binding (or returning) storage of a
 *    temporary: `... = buf.snapshot().data()`, `return
 *    std::span(local)` where `local` is a function-local container,
 *    or `= make().span()`-style chains through an rvalue.
 *
 *  - coroutine-param: a named function returning Task<...> whose body
 *    is a coroutine and that takes a parameter of a std owning type,
 *    or of a project type holding one (Project::owningTypes), by
 *    value. GCC 12 can clobber such a frame copy across suspension;
 *    task.hh rule 1 takes it by const & and copies it to a named local
 *    before the first suspension.
 *
 *  - hand-rolled-spares: a reuse list written out by hand instead of
 *    one of the three types of sim/spares.hh — a std::vector of
 *    `::node_type`, or a data member named spare*, dead* or
 *    graveyard* of std::vector type. Each reuse rule (LIFO spares,
 *    shared records skipped while held, never-reused retirees) lives
 *    and is tested there once.
 *
 * The first three and hand-rolled-spares scan src/ only: tests drive
 * the simulator synchronously inside one frame, where by-reference
 * captures are legitimate. coroutine-param scans every file, since a
 * test coroutine's frame is miscompiled just the same.
 */

#include <cctype>

#include "engine.hh"

namespace molecule::lint {

namespace {

bool
srcScope(const std::string &path)
{
    return path.find("src/") != std::string::npos ||
           path.rfind("src/", 0) == 0;
}

/** Walk back from @p pos to just past the previous statement boundary. */
std::size_t
statementStart(const std::string &code, std::size_t pos)
{
    std::size_t b = pos;
    while (b > 0) {
        const char c = code[b - 1];
        if (c == ';' || c == '{' || c == '}')
            break;
        --b;
    }
    return b;
}

/** Identifier ending at @p end (exclusive); empty when none. */
std::string
identBefore(const std::string &code, std::size_t end)
{
    std::size_t e = end;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(code[e - 1])))
        --e;
    std::size_t b = e;
    while (b > 0 && identChar(code[b - 1]))
        --b;
    return code.substr(b, e - b);
}

// ---------------------------------------------------------------------
// ref-capture-escape
// ---------------------------------------------------------------------

class RefCaptureEscapeRule final : public Rule
{
  public:
    RefCaptureEscapeRule()
        : Rule("lifetime", "ref-capture-escape",
               "by-reference lambda capture escaping into a scheduled "
               "callback")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        static const char *kSinks[] = {"schedule", "scheduleBatch",
                                       "spawn"};
        const std::string &code = f.code;
        for (const char *sink : kSinks) {
            for (std::size_t pos : findWord(code, sink)) {
                std::size_t open = pos + std::string(sink).size();
                while (open < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[open])))
                    ++open;
                if (open >= code.size() || code[open] != '(')
                    continue;
                const std::size_t close = matchBracket(code, open);
                if (close == std::string::npos)
                    continue;
                scanArgs(f, code, open, close, sink, out);
            }
        }
    }

  private:
    void
    scanArgs(const SourceFile &f, const std::string &code,
             std::size_t open, std::size_t close, const char *sink,
             std::vector<Finding> &out) const
    {
        for (std::size_t i = open; i + 1 < close; ++i) {
            if (code[i] != '[')
                continue;
            // Lambda intro, not a subscript: '[' preceded (modulo
            // whitespace) by '(', ',', '{', or another intro.
            std::size_t p = i;
            while (p > 0 && std::isspace(static_cast<unsigned char>(
                                code[p - 1])))
                --p;
            if (p == 0 ||
                (code[p - 1] != '(' && code[p - 1] != ',' &&
                 code[p - 1] != '{'))
                continue;
            const std::size_t end = code.find(']', i);
            if (end == std::string::npos || end > close)
                continue;
            const std::string captures =
                code.substr(i + 1, end - i - 1);
            if (captures.find('&') == std::string::npos)
                continue;
            emit(f, i,
                 "by-reference capture [" + captures +
                     "] passed to " + sink +
                     "(): the callback outlives this frame; capture "
                     "by value (or `this`)",
                 out);
        }
    }
};

// ---------------------------------------------------------------------
// arena-escape
// ---------------------------------------------------------------------

class ArenaEscapeRule final : public Rule
{
  public:
    ArenaEscapeRule()
        : Rule("lifetime", "arena-escape",
               "arena/SpanBuffer storage used across reset (copy out "
               "first)")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        for (const Function &fn : extractFunctions(f.code)) {
            const std::string body = f.code.substr(
                fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
            checkBody(f, fn, body, out);
        }
    }

  private:
    struct Binding
    {
        std::string var;    ///< the pointer/reference variable
        std::string source; ///< the arena / buffer it came from
        std::size_t offset; ///< position of the binding in the body
        bool needsRef;      ///< only hazardous when bound by ref/ptr
    };

    void
    checkBody(const SourceFile &f, const Function &fn,
              const std::string &body,
              std::vector<Finding> &out) const
    {
        static const char *kAllocs[] = {".create<", ".allocate(",
                                        ".allocateArray<"};
        static const char *kViews[] = {".front()", ".back()"};
        static const char *kResets[] = {".reset()", ".clear()",
                                        ".dropOldest("};

        std::vector<Binding> bindings;
        auto collect = [&](const char *pat, bool needsRef) {
            std::size_t q = 0;
            const std::string p = pat;
            while ((q = body.find(p, q)) != std::string::npos) {
                const std::string source = identBefore(body, q);
                // The binding target: `T *var = src.create<...>` —
                // identifier just before the '=' of this statement.
                const std::size_t stmt = statementStart(body, q);
                const std::size_t eq = body.find('=', stmt);
                std::string var;
                if (eq != std::string::npos && eq < q)
                    var = identBefore(body, eq);
                if (!var.empty() && !source.empty()) {
                    bool byRef = true;
                    if (needsRef) {
                        const std::string decl =
                            body.substr(stmt, eq - stmt);
                        byRef = decl.find('&') != std::string::npos ||
                                decl.find('*') != std::string::npos;
                    }
                    if (byRef)
                        bindings.push_back(
                            {var, source, q, needsRef});
                }
                q += p.size();
            }
        };
        for (const char *pat : kAllocs)
            collect(pat, /*needsRef=*/false);
        for (const char *pat : kViews)
            collect(pat, /*needsRef=*/true);
        if (bindings.empty())
            return;

        for (const char *pat : kResets) {
            const std::string p = pat;
            std::size_t q = 0;
            while ((q = body.find(p, q)) != std::string::npos) {
                const std::string reset = identBefore(body, q);
                for (const Binding &b : bindings) {
                    if (b.source != reset || b.offset >= q)
                        continue;
                    flagUseAfter(f, fn, body, b, q + p.size(), pat,
                                 out);
                }
                q += p.size();
            }
        }
    }

    void
    flagUseAfter(const SourceFile &f, const Function &fn,
                 const std::string &body, const Binding &b,
                 std::size_t after, const char *reset,
                 std::vector<Finding> &out) const
    {
        for (std::size_t use : findWord(body, b.var)) {
            if (use < after)
                continue;
            // A rebinding assignment refreshes the pointer: stop.
            std::size_t k = use + b.var.size();
            while (k < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[k])))
                ++k;
            if (k < body.size() && body[k] == '=' &&
                (k + 1 >= body.size() || body[k + 1] != '='))
                return;
            emit(f, fn.bodyBegin + use,
                 "'" + b.var + "' (from " + b.source +
                     ") used after " + b.source + reset +
                     ": storage was invalidated; copy out before the "
                     "reset (DESIGN.md §4d)",
                 out);
            return; // one finding per binding/reset pair
        }
    }
};

// ---------------------------------------------------------------------
// view-of-temporary
// ---------------------------------------------------------------------

class ViewOfTemporaryRule final : public Rule
{
  public:
    ViewOfTemporaryRule()
        : Rule("lifetime", "view-of-temporary",
               "span / data() view bound to a temporary's storage")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path);
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        checkSnapshotChains(f, out);
        checkSpanOfLocal(f, out);
    }

  private:
    /** `= x.snapshot().data()` / `return make().span()` — the owner
     * dies at the end of the full expression. */
    void
    checkSnapshotChains(const SourceFile &f,
                        std::vector<Finding> &out) const
    {
        static const char *kChains[] = {
            ".snapshot().data()", ".snapshot().begin()",
            ".snapshot().front()", ").span()", "}.span()"};
        const std::string &code = f.code;
        for (const char *pat : kChains) {
            std::size_t q = 0;
            const std::string p = pat;
            while ((q = code.find(p, q)) != std::string::npos) {
                if (bindsResult(code, q)) {
                    emit(f, q,
                         std::string("view chained off a temporary (") +
                             pat +
                             "): the owner dies at the end of the "
                             "full expression; name the owner first",
                         out);
                }
                q += p.size();
            }
        }
    }

    /** True when the chain at @p pos is bound (`=`) or returned. */
    bool
    bindsResult(const std::string &code, std::size_t pos) const
    {
        const std::size_t stmt = statementStart(code, pos);
        const std::string prefix = code.substr(stmt, pos - stmt);
        if (prefix.find('=') != std::string::npos)
            return prefix.rfind("==") == std::string::npos;
        for (std::size_t w : findWord(prefix, "return"))
            return w < prefix.size();
        return false;
    }

    /** `return std::span(local)` where `local` is a function-local
     * container. */
    void
    checkSpanOfLocal(const SourceFile &f,
                     std::vector<Finding> &out) const
    {
        for (const Function &fn : extractFunctions(f.code)) {
            const std::string body = f.code.substr(
                fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
            const std::set<std::string> locals = localContainers(body);
            if (locals.empty())
                continue;
            std::size_t q = 0;
            while ((q = body.find("return", q)) != std::string::npos) {
                const std::size_t end = body.find(';', q);
                if (end == std::string::npos)
                    break;
                const std::string expr =
                    body.substr(q + 6, end - q - 6);
                if (findWord(expr, "span").empty()) {
                    q = end;
                    continue;
                }
                for (const auto &local : locals) {
                    if (!findWord(expr, local).empty()) {
                        emit(f, fn.bodyBegin + q,
                             "returning a span over local '" + local +
                                 "' from '" + fn.name +
                                 "': the storage dies with the frame",
                             out);
                        break;
                    }
                }
                q = end;
            }
        }
    }

    std::set<std::string>
    localContainers(const std::string &body) const
    {
        std::set<std::string> out;
        for (const char *cont : {"vector", "array", "string"}) {
            for (std::size_t pos : findWord(body, cont)) {
                std::size_t k = pos + std::string(cont).size();
                if (k < body.size() && body[k] == '<') {
                    int depth = 0;
                    for (; k < body.size(); ++k) {
                        if (body[k] == '<')
                            ++depth;
                        else if (body[k] == '>' && --depth == 0) {
                            ++k;
                            break;
                        }
                    }
                }
                while (k < body.size() &&
                       std::isspace(
                           static_cast<unsigned char>(body[k])))
                    ++k;
                std::size_t e = k;
                while (e < body.size() && identChar(body[e]))
                    ++e;
                if (e > k)
                    out.insert(body.substr(k, e - k));
            }
        }
        return out;
    }
};

// ---------------------------------------------------------------------
// coroutine-param
// ---------------------------------------------------------------------

class CoroutineParamRule final : public Rule
{
  public:
    CoroutineParamRule()
        : Rule("lifetime", "coroutine-param",
               "coroutine takes a non-trivially-copyable parameter by "
               "value")
    {}

    bool inScope(const std::string &) const override { return true; }

    void
    run(const Project &project, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        const std::string &code = f.code;
        for (std::size_t pos : findWord(code, "Task")) {
            std::size_t k = pos + 4;
            skipSpace(code, k);
            if (k >= code.size() || code[k] != '<')
                continue;
            int depth = 0;
            for (; k < code.size(); ++k) {
                if (code[k] == '<')
                    ++depth;
                else if (code[k] == '>' && --depth == 0)
                    break;
                else if (code[k] == ';' || code[k] == '{')
                    break; // a comparison, not a template
            }
            if (k >= code.size() || code[k] != '>')
                continue;
            // The name: `Task<> Scope::name (`.
            std::string name;
            do {
                k += name.empty() ? 1 : 2;
                skipSpace(code, k);
                const std::size_t b = k;
                while (k < code.size() && identChar(code[k]))
                    ++k;
                name = code.substr(b, k - b);
            } while (!name.empty() && code.compare(k, 2, "::") == 0);
            skipSpace(code, k);
            if (name.empty() || k >= code.size() || code[k] != '(')
                continue;
            const std::size_t close = matchBracket(code, k);
            if (close == std::string::npos ||
                !coroutineBodyAt(code, close))
                continue;
            checkParams(f, project, name, k + 1, close - 1, out);
        }
    }

  private:
    static void
    skipSpace(const std::string &code, std::size_t &k)
    {
        while (k < code.size() &&
               std::isspace(static_cast<unsigned char>(code[k])))
            ++k;
    }

    /** Is the declarator ending at @p k followed by a coroutine body? */
    static bool
    coroutineBodyAt(const std::string &code, std::size_t k)
    {
        for (;;) {
            skipSpace(code, k);
            const std::size_t b = k;
            while (k < code.size() && identChar(code[k]))
                ++k;
            if (k == b)
                break; // past const / noexcept / override
        }
        if (k >= code.size() || code[k] != '{')
            return false;
        const std::size_t end = matchBracket(code, k);
        const std::string body = code.substr(k, end - k);
        for (const char *kw : {"co_await", "co_return", "co_yield"})
            if (!findWord(body, kw).empty())
                return true;
        return false;
    }

    /** Flag the by-value owning parameters in [@p begin, @p end). */
    void
    checkParams(const SourceFile &f, const Project &project,
                const std::string &fn, std::size_t begin,
                std::size_t end, std::vector<Finding> &out) const
    {
        const std::string &code = f.code;
        int depth = 0;
        std::size_t start = begin;
        for (std::size_t i = begin; i <= end; ++i) {
            const char c = i < end ? code[i] : ',';
            if (c == '(' || c == '<' || c == '{' || c == '[')
                ++depth;
            else if (c == ')' || c == '>' || c == '}' || c == ']')
                --depth;
            if (c != ',' || depth != 0)
                continue;
            std::string param = code.substr(start, i - start);
            param = param.substr(0, param.find('='));
            if (ownsByValue(param, project.owningTypes)) {
                const std::size_t b = param.find_first_not_of(" \t\n");
                const std::size_t e = param.find_last_not_of(" \t\n");
                emit(f, start + b,
                     "coroutine '" + fn + "' takes '" +
                         param.substr(b, e - b + 1) +
                         "' by value: GCC 12 can clobber the frame "
                         "copy; take it by const & and copy it to a "
                         "named local before the first suspension "
                         "(task.hh rule 1)",
                     out);
            }
            start = i + 1;
        }
    }
};

// ---------------------------------------------------------------------
// hand-rolled-spares
// ---------------------------------------------------------------------

class HandRolledSparesRule final : public Rule
{
  public:
    HandRolledSparesRule()
        : Rule("lifetime", "hand-rolled-spares",
               "record-reuse list kept outside sim/spares.hh")
    {}

    bool
    inScope(const std::string &path) const override
    {
        return srcScope(path) && !path.ends_with("sim/spares.hh");
    }

    void
    run(const Project &, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        const std::string &code = f.code;
        const std::vector<Function> fns = extractFunctions(code);
        for (std::size_t pos : findWord(code, "vector")) {
            const std::size_t open = pos + 6;
            if (open >= code.size() || code[open] != '<')
                continue;
            const std::string arg = firstTemplateArg(code, open);
            const std::size_t close = open + 1 + arg.size();
            if (arg.empty() || code[close] != '>')
                continue;
            if (!findWord(arg, "node_type").empty()) {
                emit(f, pos,
                     "std::vector of map nodes: keep spare nodes in "
                     "sim::Spares and insert through insertInto "
                     "(sim/spares.hh)",
                     out);
                continue;
            }
            std::size_t k = close + 1;
            while (k < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[k])))
                ++k;
            std::size_t e = k;
            while (e < code.size() && identChar(code[e]))
                ++e;
            const std::string name = code.substr(k, e - k);
            while (e < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[e])))
                ++e;
            if (!reuseName(name) || e >= code.size() || code[e] == '(' ||
                inFunction(fns, pos))
                continue;
            emit(f, k,
                 "data member '" + name +
                     "' is a std::vector reuse list: use sim::Spares, "
                     "sim::SpareRecords or sim::Graveyard "
                     "(sim/spares.hh)",
                 out);
        }
    }

  private:
    /** Is the first camelCase word of @p name spare(s), dead or
     * graveyard? */
    static bool
    reuseName(const std::string &name)
    {
        std::size_t n = 0;
        while (n < name.size() && std::islower(
                                      static_cast<unsigned char>(name[n])))
            ++n;
        const std::string word = name.substr(0, n);
        return word == "spare" || word == "spares" || word == "dead" ||
               word == "graveyard";
    }

    static bool
    inFunction(const std::vector<Function> &fns, std::size_t pos)
    {
        for (const Function &fn : fns)
            if (pos >= fn.bodyBegin && pos < fn.bodyEnd)
                return true;
        return false;
    }
};

} // namespace

void
registerLifetime(Registry &registry)
{
    registry.add(std::make_unique<RefCaptureEscapeRule>());
    registry.add(std::make_unique<ArenaEscapeRule>());
    registry.add(std::make_unique<ViewOfTemporaryRule>());
    registry.add(std::make_unique<CoroutineParamRule>());
    registry.add(std::make_unique<HandRolledSparesRule>());
}

} // namespace molecule::lint
