/**
 * @file
 * Built-in fixture suites for molecule-lint (`--self-test [pack]`).
 *
 * Each fixture is a miniature project (one or two in-memory files)
 * with the exact rule sequence it must produce. The sim-purity block
 * carries PR 2's lint_determinism fixtures verbatim — expectations
 * unchanged — so the migrated pack is regression-locked bit-for-bit
 * against the engine it replaced. Every pack has at least one
 * true-positive fixture, so disabling a detector fails the suite.
 *
 * Registered as tier-1 ctests (one per pack plus the combined run);
 * see tools/CMakeLists.txt.
 */

#include <cstdio>

#include "engine.hh"

namespace molecule::lint {

namespace {

struct Fixture
{
    /** Owning pack ("engine" = cross-pack behaviors, run all rules). */
    const char *pack;
    const char *name;
    /** Files of the miniature project. */
    std::vector<std::pair<std::string, std::string>> files;
    /** Expected rule ids after dedupe/sort; empty = must be clean. */
    std::vector<std::string> expect;
};

std::vector<Fixture>
fixtures()
{
    std::vector<Fixture> out;

    // -----------------------------------------------------------------
    // sim-purity: PR 2's fixtures, verbatim.
    // -----------------------------------------------------------------
    auto one = [](const char *path, const char *content) {
        return std::vector<std::pair<std::string, std::string>>{
            {path, content}};
    };
    out.push_back({"sim-purity", "wallclock hit",
                   one("src/os/kernel.cc",
                       "void f() { auto t = "
                       "std::chrono::system_clock::now(); }\n"),
                   {"wallclock"}});
    out.push_back({"sim-purity", "wallclock in comment ok",
                   one("src/os/kernel.cc",
                       "// std::chrono::system_clock is banned here\n"
                       "void f() {}\n"),
                   {}});
    out.push_back({"sim-purity", "wallclock in string ok",
                   one("src/os/kernel.cc",
                       "const char *s = \"system_clock\";\n"),
                   {}});
    out.push_back({"sim-purity", "random_device hit",
                   one("src/sim/random.cc",
                       "int seed() { std::random_device rd; "
                       "return rd(); }\n"),
                   {"wallclock"}});
    out.push_back({"sim-purity", "suppression same line",
                   one("src/os/kernel.cc",
                       "auto t = std::chrono::steady_clock::now(); "
                       "// det:allow(wallclock)\n"),
                   {}});
    out.push_back({"sim-purity", "suppression previous line",
                   one("src/os/kernel.cc",
                       "// det:allow(wallclock)\n"
                       "auto t = std::chrono::steady_clock::now();\n"),
                   {}});
    out.push_back({"sim-purity", "suppression wrong rule still fires",
                   one("src/os/kernel.cc",
                       "// det:allow(unordered-iteration)\n"
                       "auto t = std::chrono::steady_clock::now();\n"),
                   {"wallclock"}});
    out.push_back({"sim-purity", "pointer-keyed map",
                   one("src/core/scheduler.hh",
                       "std::map<Process *, int> byProc_;\n"),
                   {"pointer-keyed-container"}});
    out.push_back({"sim-purity", "pointer-keyed set",
                   one("src/core/scheduler.hh",
                       "std::set<const Link *> seen_;\n"),
                   {"pointer-keyed-container"}});
    out.push_back({"sim-purity", "value-keyed map ok",
                   one("src/core/scheduler.hh",
                       "std::map<std::pair<int, int>, Route> routes_;\n"
                       "std::map<std::string, int *> "
                       "ptrValuesAreFine_;\n"),
                   {}});
    out.push_back({"sim-purity", "std::function in sim",
                   one("src/sim/queue.hh",
                       "std::function<void()> cb_;\n"),
                   {"std-function-in-sim"}});
    out.push_back({"sim-purity", "std::function outside sim ok",
                   one("src/os/memory.hh",
                       "std::function<bool(std::int64_t)> hook_;\n"),
                   {}});
    out.push_back({"sim-purity", "unordered iteration in scheduling fn",
                   one("src/core/gateway.cc",
                       "std::unordered_map<int, int> pending_;\n"
                       "void pump() {\n"
                       "    for (auto &kv : pending_)\n"
                       "        sim.schedule(t, kv.second);\n"
                       "}\n"),
                   {"unordered-iteration"}});
    out.push_back({"sim-purity",
                   "unordered iteration one hop from scheduling",
                   one("src/core/gateway.cc",
                       "std::unordered_set<int> ready_;\n"
                       "void kick(int id) { sim.schedule(t, id); }\n"
                       "void pumpAll() {\n"
                       "    for (int id : ready_)\n"
                       "        kick(id);\n"
                       "}\n"),
                   {"unordered-iteration"}});
    out.push_back({"sim-purity",
                   "unordered iteration without scheduling ok",
                   one("src/core/gateway.cc",
                       "std::unordered_map<int, int> stats_;\n"
                       "int total() {\n"
                       "    int n = 0;\n"
                       "    for (auto &kv : stats_)\n"
                       "        n += kv.second;\n"
                       "    return n;\n"
                       "}\n"),
                   {}});
    out.push_back({"sim-purity",
                   "ordered iteration in scheduling fn ok",
                   one("src/core/gateway.cc",
                       "std::map<int, int> pending_;\n"
                       "void pump() {\n"
                       "    for (auto &kv : pending_)\n"
                       "        sim.schedule(t, kv.second);\n"
                       "}\n"),
                   {}});
    out.push_back({"sim-purity", "unordered begin() in scheduling fn",
                   one("src/core/gateway.cc",
                       "std::unordered_map<int, int> pending_;\n"
                       "void pump() {\n"
                       "    auto it = pending_.begin();\n"
                       "    sim.delay(t);\n"
                       "}\n"),
                   {"unordered-iteration"}});

    // -----------------------------------------------------------------
    // lifetime
    // -----------------------------------------------------------------
    out.push_back({"lifetime", "by-ref capture into schedule",
                   one("src/core/gateway.cc",
                       "void pump() {\n"
                       "    sim.schedule(t, [&] { step(); });\n"
                       "}\n"),
                   {"ref-capture-escape"}});
    out.push_back({"lifetime", "by-ref named capture into spawn",
                   one("src/core/gateway.cc",
                       "void pump() {\n"
                       "    sim.spawn([this, &req] { go(req); });\n"
                       "}\n"),
                   {"ref-capture-escape"}});
    out.push_back({"lifetime", "value captures ok",
                   one("src/core/gateway.cc",
                       "void pump() {\n"
                       "    sim.schedule(t, [this] { step(); });\n"
                       "    sim.scheduleBatch(evs, [id] { go(id); });\n"
                       "}\n"),
                   {}});
    out.push_back({"lifetime", "arena pointer used after reset",
                   one("src/obs/trace.cc",
                       "void tick(sim::Arena &arena) {\n"
                       "    Rec *r = arena.create<Rec>(1);\n"
                       "    use(r);\n"
                       "    arena.reset();\n"
                       "    use(r->id);\n"
                       "}\n"),
                   {"arena-escape"}});
    out.push_back({"lifetime", "copy-out-before-reset clean",
                   one("src/obs/trace.cc",
                       "void tick(sim::Arena &arena, "
                       "obs::SpanBuffer &buf) {\n"
                       "    Rec *r = arena.create<Rec>(1);\n"
                       "    use(r);\n"
                       "    std::vector<SpanRecord> copy = "
                       "buf.snapshot();\n"
                       "    arena.reset();\n"
                       "    exportAll(copy);\n"
                       "}\n"),
                   {}});
    out.push_back({"lifetime", "rebinding after reset ok",
                   one("src/obs/trace.cc",
                       "void tick(sim::Arena &arena) {\n"
                       "    Rec *r = arena.create<Rec>(1);\n"
                       "    use(r);\n"
                       "    arena.reset();\n"
                       "    r = arena.create<Rec>(2);\n"
                       "    use(r);\n"
                       "}\n"),
                   {}});
    out.push_back({"lifetime", "buffer ref across dropOldest",
                   one("src/obs/trace.cc",
                       "void drain(obs::SpanBuffer &buf) {\n"
                       "    const SpanRecord &rec = buf.front();\n"
                       "    buf.dropOldest(1);\n"
                       "    use(rec.spanId);\n"
                       "}\n"),
                   {"arena-escape"}});
    out.push_back({"lifetime", "record copied from buffer ok",
                   one("src/obs/trace.cc",
                       "void drain(obs::SpanBuffer &buf) {\n"
                       "    SpanRecord rec = buf.front();\n"
                       "    buf.dropOldest(1);\n"
                       "    use(rec.spanId);\n"
                       "}\n"),
                   {}});
    out.push_back({"lifetime", "data() of temporary snapshot",
                   one("src/obs/export.cc",
                       "void dump(const obs::SpanBuffer &buf) {\n"
                       "    const SpanRecord *p = "
                       "buf.snapshot().data();\n"
                       "    write(p);\n"
                       "}\n"),
                   {"view-of-temporary"}});
    out.push_back({"lifetime", "named snapshot then data() ok",
                   one("src/obs/export.cc",
                       "void dump(const obs::SpanBuffer &buf) {\n"
                       "    auto snap = buf.snapshot();\n"
                       "    write(snap.data());\n"
                       "}\n"),
                   {}});
    out.push_back({"lifetime", "span over local returned",
                   one("src/core/scheduler.cc",
                       "std::span<const int> ids() {\n"
                       "    std::vector<int> v = collect();\n"
                       "    return std::span<const int>(v.data(), "
                       "v.size());\n"
                       "}\n"),
                   {"view-of-temporary"}});
    out.push_back({"lifetime", "span over member ok",
                   one("src/core/scheduler.cc",
                       "std::span<const int> ids() {\n"
                       "    return std::span<const int>(ids_.data(), "
                       "ids_.size());\n"
                       "}\n"),
                   {}});

    // The FpgaImage-by-value coroutine of an older fpga_test.cc: the
    // image's std::vector makes the frame copy non-trivial.
    out.push_back({"lifetime", "owning struct by value into coroutine",
                   one("tests/hw/fpga_test.cc",
                       "struct FpgaImage {\n"
                       "    std::string name;\n"
                       "    std::vector<FpgaSlot> slots;\n"
                       "    FpgaResources totalResources() const;\n"
                       "};\n"
                       "Task<>\n"
                       "programIt(FpgaDevice &dev, FpgaImage img, "
                       "ProgramMode mode, bool retain)\n"
                       "{\n"
                       "    const molecule::core::Status st =\n"
                       "        co_await dev.program(img, mode, "
                       "retain);\n"
                       "    EXPECT_TRUE(st.ok());\n"
                       "}\n"),
                   {"coroutine-param"}});
    out.push_back({"lifetime", "std::string by value into coroutine",
                   one("src/xpu/client.cc",
                       "sim::Task<core::Status>\n"
                       "XpuClient::init(const std::string uuid) {\n"
                       "    co_await enterCall();\n"
                       "    co_return core::Status();\n"
                       "}\n"),
                   {"coroutine-param"}});
    out.push_back({"lifetime", "const & and trivially copyable ok",
                   one("tests/hw/fpga_test.cc",
                       "struct FpgaImage { std::vector<FpgaSlot> slots; };\n"
                       "struct Slot { int luts; SimTime t; "
                       "std::string name() const; };\n"
                       "Task<> programIt(FpgaDevice &dev, "
                       "const FpgaImage &img_in, Slot slot, int *out)\n"
                       "{\n"
                       "    const FpgaImage img = img_in;\n"
                       "    co_await dev.program(img, slot);\n"
                       "}\n"
                       "Task<> declared(std::string fn);\n"
                       "Task<> leaf(std::string fn) { return run(fn); }\n"),
                   {}});

    out.push_back({"lifetime", "hand-rolled spare and dead lists",
                   one("src/os/kernel.hh",
                       "class LocalOs {\n"
                       "    std::vector<Fifos::node_type> fifoNodes_;\n"
                       "    std::vector<std::unique_ptr<Process>> "
                       "spareProcs_;\n"
                       "    std::vector<std::unique_ptr<LocalFifo>> "
                       "deadFifos_;\n"
                       "    std::vector<std::unique_ptr<C>> graveyard_;\n"
                       "};\n"
                       "void f() { std::vector<Rows::node_type> n; }\n"),
                   {"hand-rolled-spares", "hand-rolled-spares",
                    "hand-rolled-spares", "hand-rolled-spares",
                    "hand-rolled-spares"}});
    out.push_back({"lifetime", "sim/spares.hh types and look-alikes ok",
                   one("src/os/kernel.hh",
                       "class LocalOs {\n"
                       "    sim::Spares<Fifos::node_type> spareFifos_;\n"
                       "    sim::Graveyard<Process> deadProcs_;\n"
                       "    std::vector<SimTime> deadlines_;\n"
                       "    std::vector<int> spareIds() const;\n"
                       "    double spareNormal_ = 0.0;\n"
                       "};\n"
                       "void f() { std::vector<int> spare; }\n"),
                   {}});
    out.push_back({"lifetime", "sim/spares.hh itself is the home",
                   one("src/sim/spares.hh",
                       "template <typename T> class Graveyard {\n"
                       "    std::vector<std::unique_ptr<T>> dead_;\n"
                       "};\n"),
                   {}});

    // -----------------------------------------------------------------
    // error-discard
    // -----------------------------------------------------------------
    out.push_back({"error-discard", "bare call drops Status",
                   one("src/core/recovery.cc",
                       "core::Status doThing(int x);\n"
                       "void caller() {\n"
                       "    doThing(1);\n"
                       "}\n"),
                   {"error-discard"}});
    out.push_back({"error-discard", "member call drops Expected",
                   one("src/xpu/client.cc",
                       "struct Shim { core::Expected<int> "
                       "xfifoCreate(int flags); };\n"
                       "void f(Shim *shim) {\n"
                       "    shim->xfifoCreate(3);\n"
                       "}\n"),
                   {"error-discard"}});
    out.push_back({"error-discard", "co_await drops Status",
                   one("src/xpu/shim.cc",
                       "sim::Task<core::Status> grantCap(int pid);\n"
                       "sim::Task<void> f() {\n"
                       "    co_await grantCap(1);\n"
                       "}\n"),
                   {"error-discard"}});
    out.push_back({"error-discard", "handled / void-cast ok",
                   one("src/core/recovery.cc",
                       "core::Status doThing(int x);\n"
                       "void caller() {\n"
                       "    core::Status st = doThing(1);\n"
                       "    if (!st.ok())\n"
                       "        panic();\n"
                       "    (void)doThing(2);\n"
                       "    return doThing(3).ok();\n"
                       "}\n"),
                   {}});
    out.push_back({"error-discard", "suppression ok",
                   one("src/core/recovery.cc",
                       "core::Status doThing(int x);\n"
                       "void caller() {\n"
                       "    doThing(1); // lint:allow(error-discard)\n"
                       "}\n"),
                   {}});
    out.push_back(
        {"error-discard", "harvest crosses files",
         {{"src/xpu/shim.hh",
           "sim::Task<core::Expected<ObjId>> xfifoOpen(XpuPid p);\n"},
          {"src/xpu/client.cc",
           "void f(Shim &s) {\n"
           "    s.xfifoOpen(pid);\n"
           "}\n"}},
         {"error-discard"}});
    // Name-based matching cannot attribute a call to a receiver, so a
    // name with both outcome and non-outcome declarations (runc's
    // Status-returning invoke vs runf's Task<> invoke) is dropped
    // from the callable table instead of flagging every bare call.
    out.push_back(
        {"error-discard", "ambiguous overload not flagged",
         {{"src/sandbox/runc.hh",
           "sim::Task<core::Status> invoke(const std::string &id);\n"},
          {"src/sandbox/runf.hh",
           "sim::Task<> invoke(const std::string &id);\n"},
          {"src/core/dag.cc",
           "sim::Task<> f(Runf &runf) {\n"
           "    co_await runf.invoke(\"fn\");\n"
           "}\n"}},
         {}});

    // -----------------------------------------------------------------
    // layering
    // -----------------------------------------------------------------
    out.push_back({"layering", "sim includes hw (upward)",
                   one("src/sim/bad.hh", "#include \"hw/pu.hh\"\n"),
                   {"layering"}});
    out.push_back({"layering", "core includes downward ok",
                   one("src/core/x.hh",
                       "#include \"sandbox/runc.hh\"\n"
                       "#include \"sim/time.hh\"\n"
                       "#include <vector>\n"),
                   {}});
    out.push_back({"layering", "exempt vocabulary headers ok",
                   one("src/hw/fpga2.hh",
                       "#include \"core/status.hh\"\n"
                       "#include \"fault/state.hh\"\n"),
                   {}});
    out.push_back({"layering", "obs includes core (upward)",
                   one("src/obs/x.hh",
                       "#include \"core/gateway.hh\"\n"),
                   {"layering"}});
    out.push_back({"layering", "commented include ignored",
                   one("src/sim/y.hh",
                       "// #include \"hw/pu.hh\"\n"),
                   {}});
    out.push_back({"layering", "suppressed upward include",
                   one("src/hw/y.hh",
                       "#include \"os/kernel.hh\" // "
                       "lint:allow(layering)\n"),
                   {}});

    // -----------------------------------------------------------------
    // engine behaviors (all packs active)
    // -----------------------------------------------------------------
    out.push_back(
        {"engine", "duplicate findings dedupe to one",
         one("src/core/gateway.cc",
             "std::unordered_map<int, int> pending_;\n"
             "void pump() {\n"
             "    use(pending_.begin(), pending_.end());\n"
             "    sim.delay(t);\n"
             "}\n"),
         // .begin and .end on one line used to print twice (PR 2);
         // the engine dedupes to a single finding.
         {"unordered-iteration"}});
    out.push_back({"engine", "lint:allow works for sim-purity too",
                   one("src/os/kernel.cc",
                       "// lint:allow(wallclock)\n"
                       "auto t = std::chrono::steady_clock::now();\n"),
                   {}});
    return out;
}

} // namespace

int
selfTest(const std::string &pack)
{
    const Registry registry = makeRegistry();
    int failures = 0;
    std::size_t ran = 0;
    for (const auto &fx : fixtures()) {
        if (!pack.empty() && pack != fx.pack)
            continue;
        ++ran;
        std::set<std::string> packs;
        if (std::string(fx.pack) != "engine")
            packs.insert(fx.pack);
        const auto got = runOnBuffers(registry, packs, fx.files);
        std::vector<std::string> rules;
        rules.reserve(got.size());
        for (const auto &v : got)
            rules.push_back(v.rule);
        if (rules != fx.expect) {
            ++failures;
            std::fprintf(stderr, "FAIL [%s] %s: expected [", fx.pack,
                         fx.name);
            for (const auto &r : fx.expect)
                std::fprintf(stderr, " %s", r.c_str());
            std::fprintf(stderr, " ] got [");
            for (const auto &v : got)
                std::fprintf(stderr, " %s(%s:%zu)", v.rule.c_str(),
                             v.path.c_str(), v.line);
            std::fprintf(stderr, " ]\n");
        }
    }
    std::printf("molecule-lint --self-test%s%s: %zu fixture(s), %d "
                "failure(s)\n",
                pack.empty() ? "" : " ", pack.c_str(), ran, failures);
    return failures == 0 && ran > 0 ? 0 : 1;
}

} // namespace molecule::lint
