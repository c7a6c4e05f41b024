/**
 * @file
 * molecule-lint rule-registry engine.
 *
 * A Rule is a named detector belonging to a pack; the engine prepares
 * every file once (tools/lint/source.hh), precomputes project-wide
 * tables (the module include graph, the set of callables returning
 * core::Status / core::Expected), runs each in-scope rule over each
 * file, dedupes the findings, and renders human or SARIF output.
 *
 * Dedupe is structural: findings are keyed by (path, line, rule,
 * message) after path canonicalization, so a violation that is
 * reachable through several include paths — or a file named twice on
 * the command line — reports exactly once. (PR 2's lint_determinism
 * could print the same transitive-hop finding N times; the fix lives
 * here and the old tool is now an alias over this engine.)
 *
 * Suppression: `lint:allow(<rule>)` on the same or preceding line.
 * There is no baseline: the tree scans clean, and any finding fails.
 */

#ifndef MOLECULE_TOOLS_LINT_ENGINE_HH
#define MOLECULE_TOOLS_LINT_ENGINE_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "source.hh"

namespace molecule::lint {

/** One lint finding. */
struct Finding
{
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string pack;
    std::string message;
};

/**
 * Project-wide tables available to every rule. Built once per run
 * from all scanned files, before any rule fires.
 */
struct Project
{
    /**
     * Names of callables whose (possibly Task-wrapped) return type is
     * core::Status or core::Expected<T>, harvested from declarations
     * and definitions across the scanned tree.
     */
    std::set<std::string> outcomeCallables;

    /**
     * Module layering ranks (see DESIGN.md §7): a file under
     * src/<mod>/ may include "other/..." only when
     * rank[other] <= rank[mod].
     */
    std::map<std::string, int> moduleRank;

    /** Cross-cutting vocabulary headers exempt from the layering wall. */
    std::set<std::string> exemptHeaders;
    /**
     * Names of structs and classes that hold a data member of a std
     * owning type by value, directly or through another such struct
     * (see ownsByValue): copying one is not trivial.
     */
    std::set<std::string> owningTypes;
};

/** Emits findings for one prepared file. */
class Rule
{
  public:
    Rule(std::string pack, std::string id, std::string summary)
        : pack_(std::move(pack)), id_(std::move(id)),
          summary_(std::move(summary))
    {}

    virtual ~Rule() = default;

    const std::string &pack() const { return pack_; }

    const std::string &id() const { return id_; }

    const std::string &summary() const { return summary_; }

    /** Whether @p path is in this rule's scope (paths use '/'). */
    virtual bool inScope(const std::string &path) const = 0;

    virtual void run(const Project &project, const SourceFile &file,
                     std::vector<Finding> &out) const = 0;

  protected:
    /** Emit unless a lint:allow marker covers it. */
    void
    emit(const SourceFile &f, std::size_t offset, std::string message,
         std::vector<Finding> &out) const
    {
        const std::size_t line = lineOf(f, offset);
        if (suppressed(f, line, id_))
            return;
        out.push_back({f.path, line, id_, pack_, std::move(message)});
    }

  private:
    std::string pack_;
    std::string id_;
    std::string summary_;
};

/** Ordered rule registry; packs register themselves at startup. */
class Registry
{
  public:
    void add(std::unique_ptr<Rule> rule);

    const std::vector<std::unique_ptr<Rule>> &rules() const
    {
        return rules_;
    }

    /** Distinct pack names in registration order. */
    std::vector<std::string> packs() const;

  private:
    std::vector<std::unique_ptr<Rule>> rules_;
};

/** Build the full registry: all four packs in canonical order. */
Registry makeRegistry();

enum class Format { Human, Sarif };

struct Options
{
    /** Files or directories to scan. */
    std::vector<std::string> roots;
    /** Restrict to these packs (empty = all). */
    std::set<std::string> packs;
    Format format = Format::Human;
    /** Output file ("" = stdout). */
    std::string output;
};

struct Result
{
    std::vector<Finding> findings;  ///< post-dedupe
    std::size_t filesScanned = 0;
    int exitCode = 0;
};

/**
 * Load @p opts.roots (recursively; .hh/.cc/.hpp/.cpp/.h, bench/ and
 * lint fixture trees excluded unless a root points inside them),
 * build the Project tables, run the registry and dedupe. Rendering is
 * left to the caller (render()).
 */
Result run(const Registry &registry, const Options &opts);

/** Run rules over in-memory files (fixtures / self-test). */
std::vector<Finding> runOnBuffers(
    const Registry &registry, const std::set<std::string> &packs,
    const std::vector<std::pair<std::string, std::string>> &files);

/** Render @p result to opts.output (or stdout) in opts.format. */
void render(const Registry &registry, const Options &opts,
            const Result &result);

/** Self-test fixture suites; @p pack empty = all packs. 0 on pass. */
int selfTest(const std::string &pack);

} // namespace molecule::lint

#endif // MOLECULE_TOOLS_LINT_ENGINE_HH
