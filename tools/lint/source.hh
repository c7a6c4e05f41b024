/**
 * @file
 * AST-lite source model shared by every molecule-lint rule pack.
 *
 * The scanning core that started life inside tools/lint_determinism.cc
 * (PR 2), extracted so all four rule packs — sim-purity, lifetime,
 * error-discard, layering — work from one prepared view of a file:
 *
 *  - comment- and string-stripped text of identical length/line
 *    structure (so offsets map 1:1 between raw and code views);
 *  - line-start table for offset -> line mapping;
 *  - suppression markers: `lint:allow(<rule>)` (engine-wide) and the
 *    legacy `det:allow(<rule>)` (honored by the sim-purity pack so PR 2
 *    suppressions keep working verbatim);
 *  - `#include "..."` / `#include <...>` directives;
 *  - brace-matched function bodies (AST-lite: a '{' whose backward
 *    context looks like `name(args) [const|noexcept|-> T]`).
 *
 * Everything here is pure string analysis: no libclang, no build
 * dependency, deterministic by construction.
 */

#ifndef MOLECULE_TOOLS_LINT_SOURCE_HH
#define MOLECULE_TOOLS_LINT_SOURCE_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace molecule::lint {

/** One `#include` directive. */
struct Include
{
    /** Byte offset of the '#' in the file. */
    std::size_t offset = 0;
    /** The include path as written ("hw/pu.hh", "vector", ...). */
    std::string target;
    /** True for `#include <...>` (system/library headers). */
    bool angled = false;
};

/** A source file prepared for scanning. */
struct SourceFile
{
    /** Path as reported in findings (normalized, '/' separators). */
    std::string path;
    /** Raw text (used for suppression comments and include paths). */
    std::string raw;
    /** Same text with comments and string/char literals blanked. */
    std::string code;
    /** Byte offset of the start of each line. */
    std::vector<std::size_t> lineStarts;
    /** Lines carrying lint:allow(<rule>) markers. */
    std::multimap<std::size_t, std::string> allows;
    /** Lines carrying legacy det:allow(<rule>) markers. */
    std::multimap<std::size_t, std::string> detAllows;
    /** Parsed include directives, in file order. */
    std::vector<Include> includes;
};

/** 1-based line number of @p offset. */
std::size_t lineOf(const SourceFile &f, std::size_t offset);

/** Blank comments and string/char literals, preserving length/lines. */
std::string stripCommentsAndStrings(const std::string &in);

/** Build the full prepared view of @p raw. */
SourceFile prepare(std::string path, std::string raw);

/**
 * True when an `allow` marker for @p rule (or "all") sits on the same
 * or the preceding line. @p legacyToo also accepts det:allow markers
 * (the sim-purity pack keeps PR 2 suppressions intact).
 */
bool suppressed(const SourceFile &f, std::size_t line,
                const std::string &rule, bool legacyToo = false);

bool identChar(char c);

/** Offsets of whole-word occurrences of @p word in @p code. */
std::vector<std::size_t> findWord(const std::string &code,
                                  const std::string &word);

/**
 * First depth-0 template argument after the '<' at @p open; empty when
 * the '<' turns out to be a comparison operator.
 */
std::string firstTemplateArg(const std::string &code, std::size_t open);

/**
 * Offset just past the ')' or '}' matching the '(' or '{' at @p open;
 * npos when it never closes.
 */
std::size_t matchBracket(const std::string &code, std::size_t open);

/**
 * Whether the declaration @p decl (a parameter or data member, its
 * name optional) holds a value of a std owning type (string, vector,
 * map, deque, optional, function, shared_ptr, unique_ptr) or of one
 * of the project types in @p owners. Pointers and references own
 * nothing.
 */
bool ownsByValue(const std::string &decl,
                 const std::set<std::string> &owners);

/** A brace-matched function (or lambda) body. */
struct Function
{
    std::string name;
    std::size_t bodyBegin = 0; ///< offset just after '{'
    std::size_t bodyEnd = 0;   ///< offset of matching '}'
};

/**
 * AST-lite function extraction. Nested lambdas stay inside the
 * enclosing function's range, which is what the scope-sensitive rules
 * want.
 */
std::vector<Function> extractFunctions(const std::string &code);

/** Does @p fn's body call one of @p names (word followed by '(')? */
bool callsAnyOf(const std::string &code, const Function &fn,
                const std::set<std::string> &names);

/** Names of variables/members declared as unordered containers. */
std::set<std::string> unorderedVarNames(const std::string &code);

} // namespace molecule::lint

#endif // MOLECULE_TOOLS_LINT_SOURCE_HH
