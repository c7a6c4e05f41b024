/**
 * @file
 * Figure 10: function startup latency.
 *
 *  (a) CPU: baseline cold boot vs cfork issued locally vs cfork issued
 *      from a neighbor PU (cfork-XPU), for Python and Node.js;
 *  (b) the same on the BF-1 DPU;
 *  (c) FPGA startup breakdown: Baseline (erase+load+prep), No-Erase,
 *      Warm-image, Warm-sandbox.
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using sandbox::CreateRequest;
using sandbox::FunctionImage;
using sim::SimTime;
using sim::Task;

/** Startup of @p fn on @p pu, issued from @p managerPu. */
SimTime
startupOn(bool cfork, const std::string &fn, int pu, int managerPu)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    MoleculeOptions options;
    options.startup.useCfork = cfork;
    options.managerPu = managerPu;
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();
    return runtime.runSync(runtime.invoke(fn, {.pu = pu})).value().startup;
}

/** One FPGA create+start with the given runf options. */
SimTime
fpgaStartup(bool erase, bool cachedBitstream, bool reuseWarm)
{
    sim::Simulation sim;
    auto computer = hw::buildF1Server(sim, 1);
    os::LocalOs hostOs{computer->pu(0)};
    sandbox::RunfRuntime runf{hostOs, computer->fpga(0)};
    runf.options().eraseBeforeProgram = erase;
    runf.options().bitstreamCached = cachedBitstream;

    FunctionImage img;
    img.funcId = "vmult";
    img.language = sandbox::Language::FpgaOpenCl;
    img.fpgaResources = {9007, 9530, 30, 64};

    auto createIt = [](sandbox::RunfRuntime *r,
                       const FunctionImage *fi) -> Task<> {
        const std::vector<CreateRequest> reqs{{"sb", fi}};
        const core::Expected<int> made = co_await r->createVector(reqs);
        MOLECULE_ASSERT(made.ok() && made.value() == 1, "create failed");
    };
    auto startIt = [](sandbox::RunfRuntime *r) -> Task<> {
        bool ok = co_await r->start("sb");
        MOLECULE_ASSERT(ok, "start failed");
    };
    if (!reuseWarm) {
        // Full path: (erase +) program + sandbox preparation.
        sim.spawn(createIt(&runf, &img));
        sim.run();
        sim.spawn(startIt(&runf));
        sim.run();
        return sim.now();
    }
    // Warm-sandbox: the kernel is already resident (vectorized cache
    // hit); only the software sandbox preparation remains (53 ms).
    sim.spawn(createIt(&runf, &img));
    sim.run();
    const auto t0 = sim.now();
    sim.spawn(startIt(&runf));
    sim.run();
    return sim.now() - t0;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 10: serverless startup latency",
           "cfork ~10x under baseline; remote cfork +1-3 ms; FPGA "
           "ladder >20 s / 3.8 s / 1.9 s / 53 ms");

    Table a("Figure 10-a: startup at CPU (ms)");
    a.header({"runtime", "Baseline-local", "cfork-local", "cfork-XPU"});
    for (const char *fn : {"image-resize", "alexa-front"}) {
        const char *label =
            std::string(fn) == "image-resize" ? "Python" : "Node.js";
        a.row({label, ms(startupOn(false, fn, 0, 0)),
               ms(startupOn(true, fn, 0, 0)),
               ms(startupOn(true, fn, 0, 1))});
    }
    a.print();

    Table b("Figure 10-b: startup at BF-1 DPU (ms)");
    b.header({"runtime", "Baseline-local", "cfork-local", "cfork-XPU"});
    for (const char *fn : {"image-resize", "alexa-front"}) {
        const char *label =
            std::string(fn) == "image-resize" ? "Python" : "Node.js";
        b.row({label, ms(startupOn(false, fn, 1, 1)),
               ms(startupOn(true, fn, 1, 1)),
               ms(startupOn(true, fn, 1, 0))});
    }
    b.print();

    Table c("Figure 10-c: startup at FPGA (vmult)");
    c.header({"path", "latency (s)"});
    c.row({"Baseline (erase+load+prep)", secs(fpgaStartup(true, false,
                                                          false))});
    c.row({"No-Erase", secs(fpgaStartup(false, false, false))});
    c.row({"Warm-image", secs(fpgaStartup(false, true, false))});
    c.row({"Warm-sandbox", secs(fpgaStartup(false, true, true), 3)});
    c.print();
    return 0;
}
