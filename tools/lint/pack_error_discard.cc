/**
 * @file
 * error-discard pack: call sites that drop a typed outcome.
 *
 * PR 4 moved every fallible runtime operation onto core::Status /
 * core::Expected<T>; silently discarding one swallows an injected
 * fault and turns a chaos test into a false pass. The classes carry
 * [[nodiscard]], which covers direct calls at compile time — this rule
 * closes the gaps the attribute cannot see:
 *
 *  - `co_await op();` as a bare statement (the Task is consumed, the
 *    Status inside it is not);
 *  - call sites in files compiled without -Werror (tools, examples);
 *  - future backends compiled out of the default build.
 *
 * The callable table is harvested project-wide from declarations whose
 * return type is Status / Expected<T>, plain or Task-wrapped, so the
 * rule follows the API surface automatically as it grows.
 *
 * A discarded statement looks like `chain();` where `chain` is a pure
 * access path (identifiers, `.`, `->`, `::`, optional leading
 * co_await) ending in a harvested callable. Anything else in the
 * statement prefix — assignment, return, a cast such as `(void)`, an
 * enclosing call — counts as use.
 */

#include <cctype>

#include "engine.hh"

namespace molecule::lint {

namespace {

bool
pureAccessPrefix(const std::string &prefixIn)
{
    std::string prefix = prefixIn;
    // Trim.
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.front())))
        prefix.erase(prefix.begin());
    while (!prefix.empty() &&
           std::isspace(static_cast<unsigned char>(prefix.back())))
        prefix.pop_back();
    // Optional leading co_await (a bare `co_await op();` drops the
    // Status inside the awaited Task).
    if (prefix.rfind("co_await", 0) == 0) {
        prefix.erase(0, 8);
        while (!prefix.empty() &&
               std::isspace(
                   static_cast<unsigned char>(prefix.front())))
            prefix.erase(prefix.begin());
    }
    if (prefix.empty())
        return true; // bare call: `doThing(...);`
    // A member/qualified call chain ends in a connector right before
    // the callable name (`shim->`, `plan.`, `ns::`). A prefix ending
    // in an identifier is a *declaration* (`core::Status doThing(...)`)
    // — not a discard site.
    const char tail = prefix.back();
    if (tail != '.' && tail != ':' &&
        !(tail == '>' && prefix.size() >= 2 &&
          prefix[prefix.size() - 2] == '-'))
        return false;
    // And the whole prefix must be a pure access path: identifiers
    // joined by '.', '->', '::' only.
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        const char c = prefix[i];
        if (identChar(c) || c == '.' || c == ':' ||
            std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (c == '-' && i + 1 < prefix.size() && prefix[i + 1] == '>') {
            ++i;
            continue;
        }
        return false;
    }
    return true;
}

class ErrorDiscardRule final : public Rule
{
  public:
    ErrorDiscardRule()
        : Rule("error-discard", "error-discard",
               "core::Status / core::Expected result silently dropped")
    {}

    bool
    inScope(const std::string &) const override
    {
        return true; // src, tools, tests, examples alike
    }

    void
    run(const Project &project, const SourceFile &f,
        std::vector<Finding> &out) const override
    {
        const std::string &code = f.code;
        for (const auto &name : project.outcomeCallables) {
            for (std::size_t pos : findWord(code, name)) {
                std::size_t open = pos + name.size();
                while (open < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[open])))
                    ++open;
                if (open >= code.size() || code[open] != '(')
                    continue;
                const std::size_t close = matchBracket(code, open);
                if (close == std::string::npos)
                    continue;
                std::size_t semi = close;
                while (semi < code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(code[semi])))
                    ++semi;
                if (semi >= code.size() || code[semi] != ';')
                    continue; // result feeds a larger expression
                // Statement prefix: from the previous boundary up to
                // the callable name.
                std::size_t b = pos;
                while (b > 0) {
                    const char c = code[b - 1];
                    if (c == ';' || c == '{' || c == '}')
                        break;
                    --b;
                }
                if (!pureAccessPrefix(code.substr(b, pos - b)))
                    continue;
                emit(f, pos,
                     "result of '" + name +
                         "' (core::Status/Expected) is discarded: "
                         "handle it, assert on it, or `(void)`-cast "
                         "with a lint:allow(error-discard) note",
                     out);
            }
        }
    }
};

} // namespace

void
registerErrorDiscard(Registry &registry)
{
    registry.add(std::make_unique<ErrorDiscardRule>());
}

} // namespace molecule::lint
