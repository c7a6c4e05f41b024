/**
 * @file
 * molecule-lint CLI.
 *
 * Usage:
 *   molecule-lint [options] <dir-or-file>...
 *     --format human|sarif    (default: human)
 *     --output <file>         write the report there (default: stdout)
 *     --packs a,b,c           run only these packs (default: all)
 *     --list-rules            print the rule registry and exit
 *     --self-test [pack]      run the built-in fixture suites
 *
 * Exit codes: 0 clean, 1 findings, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "engine.hh"

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: molecule-lint [--format human|sarif] [--output FILE]\n"
        "                     [--packs A,B] [--list-rules]\n"
        "                     [--self-test [PACK]]\n"
        "                     <dir-or-file>...\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace molecule::lint;

    Options opts;
    bool runSelfTest = false;
    bool listRules = false;
    std::string selfTestPack;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--format") {
            const char *v = next();
            if (!v)
                return usage();
            if (std::strcmp(v, "human") == 0)
                opts.format = Format::Human;
            else if (std::strcmp(v, "sarif") == 0)
                opts.format = Format::Sarif;
            else
                return usage();
        } else if (arg == "--output") {
            const char *v = next();
            if (!v)
                return usage();
            opts.output = v;
        } else if (arg == "--packs") {
            const char *v = next();
            if (!v)
                return usage();
            std::stringstream ss(v);
            std::string pack;
            while (std::getline(ss, pack, ','))
                if (!pack.empty())
                    opts.packs.insert(pack);
        } else if (arg == "--self-test") {
            runSelfTest = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                selfTestPack = argv[++i];
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            opts.roots.push_back(arg);
        }
    }

    const Registry registry = makeRegistry();

    if (listRules) {
        for (const auto &rule : registry.rules())
            std::printf("%-14s %-24s %s\n", rule->pack().c_str(),
                        rule->id().c_str(), rule->summary().c_str());
        return 0;
    }
    if (runSelfTest)
        return selfTest(selfTestPack);
    if (opts.roots.empty())
        return usage();

    const Result result = run(registry, opts);
    render(registry, opts, result);
    return result.exitCode;
}
