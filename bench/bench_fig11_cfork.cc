/**
 * @file
 * Figure 11: cfork optimization breakdown and memory usage.
 *
 *  (a) startup latency of the four startup paths on the Fig 11
 *      desktop (i7-9700): Baseline / +Naive cfork / +FuncContainer /
 *      +Cpuset opt;
 *  (b,c) average RSS and PSS per instance (image-resize-class
 *      function) at 1..16 concurrent instances, Molecule (cfork,
 *      shared template) vs baseline (independent cold boots).
 */

#include "bench/common.hh"
#include "sandbox/runc.hh"

namespace {

using namespace molecule;
using sandbox::FunctionImage;
using sandbox::Instance;
using sandbox::Language;
using sandbox::RuncRuntime;
using sandbox::StartupPath;
using sim::SimTime;
using sim::Task;

/** The function used in the Fig 11 breakdown (tiny Python fn). */
FunctionImage
breakdownFunction()
{
    FunctionImage img;
    img.funcId = "pyfn";
    img.language = Language::Python;
    img.mem.runtimeShared = std::uint64_t(4.5 * (1 << 20));
    img.mem.privateBytes = 8 << 20;
    img.mem.templateExtra = std::uint64_t(3.5 * (1 << 20));
    return img;
}

struct DesktopHarness
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer = hw::buildDesktop(sim);
    os::LocalOs os{computer->pu(0)};
    RuncRuntime runc{os};
    FunctionImage img = breakdownFunction();
    int counter = 0;

    void
    prepare()
    {
        auto prep = [](RuncRuntime *r, const FunctionImage *fi) -> Task<> {
            (void)co_await r->prepareTemplate(*fi);
            co_await r->prewarmFunctionContainers(24);
        };
        sim.spawn(prep(&runc, &img));
        sim.run();
    }

    SimTime
    createOnce(StartupPath path)
    {
        runc.setStartupPath(path);
        const std::string id = "sb" + std::to_string(counter++);
        const auto t0 = sim.now();
        auto doIt = [](RuncRuntime *r, Instance *inst) -> Task<> {
            bool ok = co_await r->create(*inst, {});
            MOLECULE_ASSERT(ok, "create failed");
        };
        Instance *inst = runc.addInstance(id, img);
        MOLECULE_ASSERT(inst != nullptr, "sandbox id taken");
        sim.spawn(doIt(&runc, inst));
        sim.run();
        return sim.now() - t0;
    }
};

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 11: cfork breakdown and memory usage",
           "paper: 85.55 -> 47.25 -> 30.05 -> 8.40 ms; PSS ~34% lower "
           "at 16 instances, RSS higher due to the template");

    {
        DesktopHarness h;
        h.prepare();
        Table a("Figure 11-a: cfork breakdown on i7-9700 (ms)");
        a.header({"configuration", "startup"});
        a.row({"Baseline", ms(h.createOnce(StartupPath::ColdBoot))});
        a.row({"+Naive cfork",
               ms(h.createOnce(StartupPath::CforkNaive))});
        a.row({"+FuncContainer",
               ms(h.createOnce(StartupPath::CforkFuncContainer))});
        a.row({"+Cpuset opt",
               ms(h.createOnce(StartupPath::CforkCpusetOpt))});
        a.print();
    }

    // (b,c) memory: average RSS/PSS over all running instances. The
    // Molecule rows amortize the template container's RSS.
    Table b("Figure 11-b/c: memory per instance (MB) vs concurrency");
    b.header({"instances", "RSS base", "RSS Molecule", "PSS base",
              "PSS Molecule"});
    const double mb = double(1 << 20);
    for (int n : {1, 2, 4, 8, 16}) {
        DesktopHarness base;
        for (int i = 0; i < n; ++i)
            base.createOnce(StartupPath::ColdBoot);
        double baseRss = 0, basePss = 0;
        for (int i = 0; i < n; ++i) {
            const std::string id = "sb" + std::to_string(i);
            baseRss += double(base.runc.instanceRss(id));
            basePss += base.runc.instancePss(id);
        }

        DesktopHarness mol;
        mol.prepare();
        for (int i = 0; i < n; ++i)
            mol.createOnce(StartupPath::CforkCpusetOpt);
        double molRss = 0, molPss = 0;
        for (int i = 0; i < n; ++i) {
            const std::string id = "sb" + std::to_string(i);
            molRss += double(mol.runc.instanceRss(id));
            molPss += mol.runc.instancePss(id);
        }
        // Template resources belong to Molecule's footprint (§6.4).
        molRss += double(mol.runc.templateRss(Language::Python));

        b.row({std::to_string(n),
               Table::num(baseRss / n / mb, 2),
               Table::num(molRss / n / mb, 2),
               Table::num(basePss / n / mb, 2),
               Table::num(molPss / n / mb, 2)});
    }
    b.print();
    return 0;
}
