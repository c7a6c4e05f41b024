/**
 * @file
 * Perf-smoke gate: compare a fresh BENCH_simcore.json against the
 * committed reference and fail on regression.
 *
 * Usage:
 *   perf_check <reference.json> <fresh.json> [--tolerance 0.20]
 *
 * Every benchmark present in BOTH files is compared on its headline
 * "value" (items/sec, best-of-repetitions). A benchmark regresses
 * when fresh < reference * (1 - tolerance); the default tolerance of
 * 20% absorbs shared-runner noise while still catching real cliffs.
 * Benchmarks present only on one side are reported but never fail
 * the gate (new benches have no reference yet).
 *
 * MOLECULE_PERF_WARN_ONLY=1 in the environment downgrades regressions
 * to warnings — the escape hatch for known-noisy CI pools — while
 * keeping the full comparison table in the log.
 *
 * The parser is deliberately minimal: it understands exactly the
 * snapshot shape PerfSnapshot::writeJson emits (a flat "results"
 * object of name -> { "value": N, ... }), not general JSON.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace {

/** name -> headline value, in file order (std::map: sorted report). */
std::map<std::string, double>
parseSnapshot(const std::string &path, bool *ok)
{
    std::map<std::string, double> out;
    *ok = false;
    std::ifstream in(path);
    if (!in)
        return out;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    // Scan for  "name": {  ...  "value": <num>  pairs.
    std::string current;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '"')
            continue;
        const std::size_t close = text.find('"', i + 1);
        if (close == std::string::npos)
            break;
        const std::string key = text.substr(i + 1, close - i - 1);
        std::size_t j = close + 1;
        while (j < text.size() && std::isspace(text[j]))
            ++j;
        if (j >= text.size() || text[j] != ':') {
            i = close;
            continue;
        }
        ++j;
        while (j < text.size() && std::isspace(text[j]))
            ++j;
        if (j < text.size() && text[j] == '{') {
            // Entering an object: benchmark names live under
            // "results"; remember the key as the current benchmark.
            if (key != "results" && key != "metric")
                current = key;
        } else if (key == "value" && !current.empty()) {
            out[current] = std::strtod(text.c_str() + j, nullptr);
        }
        i = close;
    }
    *ok = true;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string refPath, freshPath;
    double tolerance = 0.20;
    bool warnOnly = false;

    const char *env = std::getenv("MOLECULE_PERF_WARN_ONLY");
    if (env != nullptr && std::strcmp(env, "0") != 0 &&
        std::strcmp(env, "") != 0)
        warnOnly = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance" && i + 1 < argc) {
            tolerance = std::strtod(argv[++i], nullptr);
        } else if (refPath.empty()) {
            refPath = arg;
        } else if (freshPath.empty()) {
            freshPath = arg;
        } else {
            std::fprintf(stderr, "unexpected argument: %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (refPath.empty() || freshPath.empty()) {
        std::fprintf(stderr,
                     "usage: perf_check <reference.json> <fresh.json>"
                     " [--tolerance 0.20]\n");
        return 2;
    }

    bool refOk = false, freshOk = false;
    const auto ref = parseSnapshot(refPath, &refOk);
    const auto fresh = parseSnapshot(freshPath, &freshOk);
    if (!refOk || ref.empty()) {
        std::fprintf(stderr, "cannot read reference snapshot %s\n",
                     refPath.c_str());
        return 2;
    }
    if (!freshOk || fresh.empty()) {
        std::fprintf(stderr, "cannot read fresh snapshot %s\n",
                     freshPath.c_str());
        return 2;
    }

    std::printf("perf_check: tolerance %.0f%%%s\n", tolerance * 100,
                warnOnly ? " (warn-only)" : "");
    std::printf("%-34s %14s %14s %9s\n", "benchmark", "reference",
                "fresh", "ratio");

    int regressions = 0;
    for (const auto &[name, refVal] : ref) {
        const auto it = fresh.find(name);
        if (it == fresh.end()) {
            std::printf("%-34s %14.3e %14s %9s\n", name.c_str(),
                        refVal, "-", "gone");
            continue;
        }
        const double ratio = refVal > 0 ? it->second / refVal : 1.0;
        const bool bad = ratio < 1.0 - tolerance;
        std::printf("%-34s %14.3e %14.3e %8.2fx%s\n", name.c_str(),
                    refVal, it->second, ratio,
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++regressions;
    }
    for (const auto &[name, val] : fresh)
        if (ref.find(name) == ref.end())
            std::printf("%-34s %14s %14.3e %9s\n", name.c_str(), "-",
                        val, "new");

    if (regressions != 0) {
        std::fprintf(stderr, "\n%d benchmark%s regressed beyond %.0f%%\n",
                     regressions, regressions == 1 ? "" : "s",
                     tolerance * 100);
        return warnOnly ? 0 : 1;
    }
    std::printf("\nno regressions beyond %.0f%%\n", tolerance * 100);
    return 0;
}
