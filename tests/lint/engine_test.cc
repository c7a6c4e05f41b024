/**
 * @file
 * Unit tests for the molecule-lint engine (tools/lint/).
 *
 * The pack detectors themselves are covered by the built-in fixture
 * suites (`molecule-lint --self-test`, registered per pack as ctests)
 * and by the on-disk fixtures next to this file; these tests pin the
 * engine mechanics — dedupe, registry shape, suppression
 * — through the public runOnBuffers() entry point.
 */

#include <gtest/gtest.h>

#include "engine.hh"

namespace {

using namespace molecule::lint;

std::vector<Finding>
scan(const std::vector<std::pair<std::string, std::string>> &files,
     const std::set<std::string> &packs = {})
{
    const Registry registry = makeRegistry();
    return runOnBuffers(registry, packs, files);
}

TEST(LintEngine, RegistryHasFourPacksInCanonicalOrder)
{
    const Registry registry = makeRegistry();
    const std::vector<std::string> expected{"sim-purity", "lifetime",
                                            "error-discard", "layering"};
    EXPECT_EQ(registry.packs(), expected);
    EXPECT_GE(registry.rules().size(), 7u);
}

// PR 2's lint_determinism printed a transitive-hop finding once per
// discovery path; the engine keys findings structurally, so the same
// (path, line, rule, message) reports exactly once.
TEST(LintEngine, DedupesStructurallyIdenticalFindings)
{
    const auto findings =
        scan({{"src/core/router.cc",
               "struct R {\n"
               "    std::unordered_map<int, int> pending_;\n"
               "    void pump(sim::Simulation &sim) {\n"
               "        use(pending_.begin(), pending_.end());\n"
               "        sim.schedule(t, cb);\n"
               "    }\n"
               "};\n"}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-iteration");
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintEngine, PackFilterRestrictsRules)
{
    const std::vector<std::pair<std::string, std::string>> files{
        {"src/sim/two.cc",
         "#include \"hw/pu.hh\"\n"
         "void f() { auto t = std::chrono::steady_clock::now(); }\n"}};
    const auto all = scan(files);
    EXPECT_EQ(all.size(), 2u); // wallclock + layering
    const auto onlyLayering = scan(files, {"layering"});
    ASSERT_EQ(onlyLayering.size(), 1u);
    EXPECT_EQ(onlyLayering[0].pack, "layering");
}

TEST(LintEngine, LintAllowSuppressesAnyRule)
{
    const auto findings =
        scan({{"src/sim/ok.cc",
               "// lint:allow(wallclock): fixture\n"
               "void f() { auto t = std::chrono::steady_clock::now(); "
               "}\n"}});
    EXPECT_TRUE(findings.empty());
}

TEST(LintEngine, FindingsAreSortedByPathThenLine)
{
    const auto findings = scan(
        {{"src/sim/b.cc",
          "void f() { auto t = std::chrono::steady_clock::now(); }\n"},
         {"src/sim/a.cc",
          "void g() {\n"
          "    auto t = std::chrono::steady_clock::now();\n"
          "}\n"}});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].path, "src/sim/a.cc");
    EXPECT_EQ(findings[1].path, "src/sim/b.cc");
}

TEST(LintEngine, BuiltInSelfTestSuitesPass)
{
    EXPECT_EQ(selfTest(""), 0);
    EXPECT_NE(selfTest("no-such-pack"), 0);
}

} // namespace
