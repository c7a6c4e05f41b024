#include "source.hh"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace molecule::lint {

std::size_t
lineOf(const SourceFile &f, std::size_t offset)
{
    auto it = std::upper_bound(f.lineStarts.begin(), f.lineStarts.end(),
                               offset);
    return std::size_t(it - f.lineStarts.begin());
}

std::string
stripCommentsAndStrings(const std::string &in)
{
    std::string out = in;
    enum class St { Code, Line, Block, Str, Chr } st = St::Code;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = ' ';
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = ' ';
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
            if (c == '\\') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Chr:
            if (c == '\\') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            } else {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

namespace {

void
collectAllows(const std::string &raw, const SourceFile &f,
              const std::string &tag,
              std::multimap<std::size_t, std::string> &out)
{
    std::size_t pos = 0;
    while ((pos = raw.find(tag, pos)) != std::string::npos) {
        const std::size_t open = pos + tag.size();
        const std::size_t close = raw.find(')', open);
        if (close != std::string::npos)
            out.emplace(lineOf(f, pos), raw.substr(open, close - open));
        pos = open;
    }
}

void
collectIncludes(SourceFile &f)
{
    // Walk the *stripped* view so commented-out directives do not
    // count, but read the include path from the raw text (string
    // literals are blanked in the stripped view).
    const std::string &code = f.code;
    for (std::size_t ls = 0; ls < f.lineStarts.size(); ++ls) {
        std::size_t i = f.lineStarts[ls];
        while (i < code.size() &&
               (code[i] == ' ' || code[i] == '\t'))
            ++i;
        if (i >= code.size() || code[i] != '#')
            continue;
        const std::size_t hash = i;
        ++i;
        while (i < code.size() &&
               (code[i] == ' ' || code[i] == '\t'))
            ++i;
        if (code.compare(i, 7, "include") != 0)
            continue;
        i += 7;
        while (i < code.size() &&
               (code[i] == ' ' || code[i] == '\t'))
            ++i;
        if (i >= f.raw.size())
            continue;
        const char open = f.raw[i];
        if (open != '"' && open != '<')
            continue;
        const char close = open == '"' ? '"' : '>';
        const std::size_t end = f.raw.find(close, i + 1);
        if (end == std::string::npos)
            continue;
        f.includes.push_back(
            {hash, f.raw.substr(i + 1, end - i - 1), open == '<'});
    }
}

} // namespace

SourceFile
prepare(std::string path, std::string raw)
{
    SourceFile f;
    f.path = std::move(path);
    std::replace(f.path.begin(), f.path.end(), '\\', '/');
    f.raw = std::move(raw);
    f.code = stripCommentsAndStrings(f.raw);
    f.lineStarts.push_back(0);
    for (std::size_t i = 0; i < f.raw.size(); ++i) {
        if (f.raw[i] == '\n')
            f.lineStarts.push_back(i + 1);
    }
    collectAllows(f.raw, f, "lint:allow(", f.allows);
    collectIncludes(f);
    return f;
}

bool
suppressed(const SourceFile &f, std::size_t line, const std::string &rule)
{
    for (std::size_t l : {line, line > 1 ? line - 1 : line}) {
        auto [lo, hi] = f.allows.equal_range(l);
        for (auto it = lo; it != hi; ++it) {
            if (it->second == rule || it->second == "all")
                return true;
        }
    }
    return false;
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::size_t>
findWord(const std::string &code, const std::string &word)
{
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while ((pos = code.find(word, pos)) != std::string::npos) {
        const bool leftOk = pos == 0 || !identChar(code[pos - 1]);
        const std::size_t end = pos + word.size();
        const bool rightOk = end >= code.size() || !identChar(code[end]);
        if (leftOk && rightOk)
            out.push_back(pos);
        pos = end;
    }
    return out;
}

std::string
firstTemplateArg(const std::string &code, std::size_t open)
{
    int depth = 0;
    std::size_t i = open;
    for (; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            if (--depth == 0)
                break;
        } else if (c == ',' && depth == 1) {
            break;
        } else if (c == ';' || c == '{') {
            break; // not a template after all (e.g. operator<)
        }
    }
    if (i >= code.size())
        return {}; // unterminated: not a real template argument list
    if (code[i] == ';' || code[i] == '{')
        return {}; // comparison operator, not a template
    return code.substr(open + 1, i - open - 1);
}

std::size_t
matchBracket(const std::string &code, std::size_t open)
{
    const char opener = code[open];
    const char closer = opener == '{' ? '}' : ')';
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == opener) {
            ++depth;
        } else if (code[i] == closer) {
            if (--depth == 0)
                return i + 1;
        }
    }
    return std::string::npos;
}

bool
ownsByValue(const std::string &decl, const std::set<std::string> &owners)
{
    static const std::set<std::string> kStdOwning{
        "string",   "vector",   "map",        "deque",
        "optional", "function", "shared_ptr", "unique_ptr"};
    static const std::set<std::string> kQualifiers{
        "const", "volatile", "mutable", "struct", "class", "typename"};
    // Template arguments do not matter (a vector of pointers owns).
    std::string flat;
    int depth = 0;
    for (const char c : decl) {
        if (c == '<')
            ++depth;
        else if (c == '>' && depth > 0)
            --depth;
        else if (depth == 0)
            flat += c;
    }
    if (flat.find_first_of("&*") != std::string::npos)
        return false;
    // The leading qualified type name, after cv and elaborated
    // keywords: `const std::string name` -> {std, string}.
    std::vector<std::string> chain;
    std::size_t i = 0;
    for (;;) {
        while (i < flat.size() &&
               std::isspace(static_cast<unsigned char>(flat[i])))
            ++i;
        const std::size_t b = i;
        while (i < flat.size() && identChar(flat[i]))
            ++i;
        if (i == b)
            break;
        const std::string word = flat.substr(b, i - b);
        if (chain.empty() && kQualifiers.count(word) != 0)
            continue;
        chain.push_back(word);
        while (i < flat.size() &&
               std::isspace(static_cast<unsigned char>(flat[i])))
            ++i;
        if (flat.compare(i, 2, "::") != 0)
            break;
        i += 2;
    }
    if (chain.empty())
        return false;
    if (chain.size() == 2 && chain[0] == "std")
        return kStdOwning.count(chain[1]) != 0;
    return owners.count(chain.back()) != 0;
}

std::vector<Function>
extractFunctions(const std::string &code)
{
    std::vector<Function> out;
    std::size_t i = 0;
    while (i < code.size()) {
        if (code[i] != '{') {
            ++i;
            continue;
        }
        // Walk back over qualifiers to the closing ')' of a parameter
        // list.
        std::size_t j = i;
        auto skipBackWs = [&] {
            while (j > 0 &&
                   std::isspace(static_cast<unsigned char>(code[j - 1])))
                --j;
        };
        skipBackWs();
        for (const char *qual :
             {"const", "noexcept", "override", "final", "mutable"}) {
            const std::size_t len = std::strlen(qual);
            if (j >= len && code.compare(j - len, len, qual) == 0) {
                j -= len;
                skipBackWs();
            }
        }
        // Tolerate a trailing-return-type `-> T` (identifier-ish only).
        {
            std::size_t k = j;
            while (k > 0 && (identChar(code[k - 1]) || code[k - 1] == ':' ||
                             code[k - 1] == '<' || code[k - 1] == '>' ||
                             code[k - 1] == ' '))
                --k;
            if (k >= 2 && code[k - 1] == '>' && code[k - 2] == '-') {
                j = k - 2;
                skipBackWs();
            }
        }
        if (j == 0 || code[j - 1] != ')') {
            ++i;
            continue;
        }
        // Match back to the opening '(' and read the identifier.
        int depth = 0;
        std::size_t p = j - 1;
        for (;; --p) {
            if (code[p] == ')')
                ++depth;
            else if (code[p] == '(' && --depth == 0)
                break;
            if (p == 0)
                break;
        }
        if (p == 0 && depth != 0) {
            ++i;
            continue;
        }
        std::size_t nameEnd = p;
        while (nameEnd > 0 && std::isspace(static_cast<unsigned char>(
                                  code[nameEnd - 1])))
            --nameEnd;
        std::size_t nameBegin = nameEnd;
        while (nameBegin > 0 && identChar(code[nameBegin - 1]))
            --nameBegin;
        if (nameBegin == nameEnd) {
            ++i;
            continue;
        }
        const std::string name = code.substr(nameBegin,
                                             nameEnd - nameBegin);
        // Control-flow keywords introduce blocks, not functions.
        static const std::set<std::string> kKeywords{
            "if", "for", "while", "switch", "catch", "return", "sizeof",
            "alignof", "co_await", "co_return", "co_yield", "defined"};
        if (kKeywords.count(name)) {
            ++i;
            continue;
        }
        // Find the matching closing brace.
        int braces = 1;
        std::size_t end = i + 1;
        while (end < code.size() && braces > 0) {
            if (code[end] == '{')
                ++braces;
            else if (code[end] == '}')
                --braces;
            ++end;
        }
        out.push_back({name, i + 1, end > i ? end - 1 : i + 1});
        ++i;
    }
    return out;
}

bool
callsAnyOf(const std::string &code, const Function &fn,
           const std::set<std::string> &names)
{
    const std::string body = code.substr(fn.bodyBegin,
                                         fn.bodyEnd - fn.bodyBegin);
    for (const auto &name : names) {
        for (std::size_t pos : findWord(body, name)) {
            std::size_t k = pos + name.size();
            while (k < body.size() &&
                   std::isspace(static_cast<unsigned char>(body[k])))
                ++k;
            if (k < body.size() && body[k] == '(')
                return true;
        }
    }
    return false;
}

std::set<std::string>
unorderedVarNames(const std::string &code)
{
    std::set<std::string> out;
    for (const char *cont : {"unordered_map", "unordered_set",
                             "unordered_multimap",
                             "unordered_multiset"}) {
        for (std::size_t pos : findWord(code, cont)) {
            std::size_t open = pos + std::strlen(cont);
            while (open < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[open])))
                ++open;
            if (open >= code.size() || code[open] != '<')
                continue;
            // Skip the template argument list.
            int depth = 0;
            std::size_t i = open;
            for (; i < code.size(); ++i) {
                if (code[i] == '<')
                    ++depth;
                else if (code[i] == '>' && --depth == 0)
                    break;
            }
            if (i >= code.size())
                continue;
            // The declared name follows (possibly after &/whitespace).
            std::size_t k = i + 1;
            while (k < code.size() &&
                   (std::isspace(static_cast<unsigned char>(code[k])) ||
                    code[k] == '&'))
                ++k;
            std::size_t nameEnd = k;
            while (nameEnd < code.size() && identChar(code[nameEnd]))
                ++nameEnd;
            if (nameEnd > k)
                out.insert(code.substr(k, nameEnd - k));
        }
    }
    return out;
}

} // namespace molecule::lint
