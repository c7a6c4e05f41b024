/**
 * @file
 * Figure 14-a..d: FunctionBench end-to-end latency, baseline
 * (Molecule-homo) vs Molecule.
 *
 *  (a) cold boot on the host CPU       (c) cold boot on BF-1 DPU
 *  (b) warm boot on the host CPU       (d) cold boot on BF-2 DPU
 *
 * Warm boot pre-creates and caches the instance, then measures the
 * first invocation (so Molecule's cfork COW penalty is visible, §6.6).
 */

#include "bench/common.hh"

namespace {

using namespace molecule;
using core::Molecule;
using core::MoleculeOptions;
using hw::DpuGeneration;
using hw::PuType;
using workloads::Catalog;

struct Setup
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer;
    std::unique_ptr<Molecule> runtime;

    Setup(bool cfork, DpuGeneration gen)
    {
        computer = hw::buildCpuDpuServer(sim, 2, gen);
        MoleculeOptions options;
        options.startup.useCfork = cfork;
        runtime = std::make_unique<Molecule>(*computer, options);
        for (const auto &fn : Catalog::functionBenchNames())
            runtime->registerCpuFunction(fn,
                                         {PuType::HostCpu, PuType::Dpu});
        runtime->start();
    }
};

/** Cold end-to-end latency of @p fn on @p pu. */
sim::SimTime
coldE2e(bool cfork, DpuGeneration gen, const std::string &fn, int pu)
{
    Setup s(cfork, gen);
    // Manage from the same PU (the paper boots DPU instances remotely
    // for Molecule; homo runs entirely on one PU).
    return s.runtime->runSync(s.runtime->invoke(fn, {.pu = pu}))
        .value()
        .endToEnd;
}

/** Warm end-to-end latency: instance pre-created and cached. */
sim::SimTime
warmE2e(bool cfork, const std::string &fn, int pu)
{
    Setup s(cfork, DpuGeneration::Bf1);
    auto &runtime = *s.runtime;
    // Pre-create the instance without executing it.
    auto prewarm = [](Molecule *m, std::string name, int target)
        -> sim::Task<> {
        const core::FunctionDef &def = m->registry().find(name);
        auto acq = co_await m->startup().acquire(def, target,
                                                 m->options().managerPu);
        co_await m->startup().release(def, acq);
    };
    runtime.simulation().spawn(prewarm(&runtime, fn, pu));
    runtime.simulation().run();
    return runtime.runSync(runtime.invoke(fn, {.pu = pu})).value().endToEnd;
}

void
coldTable(const char *title, DpuGeneration gen, int pu)
{
    using molecule::sim::Table;
    Table t(title);
    t.header({"function", "Baseline (ms)", "Molecule (ms)", "speedup"});
    for (const auto &fn : Catalog::functionBenchNames()) {
        const auto base = coldE2e(false, gen, fn, pu);
        const auto mol = coldE2e(true, gen, fn, pu);
        t.row({fn, molecule::bench::ms(base), molecule::bench::ms(mol),
               Table::num(base.toMilliseconds() / mol.toMilliseconds(),
                          2) +
                   "x"});
    }
    t.print();
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 14-a..d: FunctionBench end-to-end latency",
           "paper: Molecule 1.01x-11.12x better cold; warm ~equal "
           "(slight COW penalty); BF-1 4-7x slower than CPU; BF-2 "
           "3-4x better than BF-1");

    coldTable("Figure 14-a: cold boot on CPU", DpuGeneration::Bf1, 0);

    {
        Table t("Figure 14-b: warm boot on CPU");
        t.header({"function", "Baseline (ms)", "Molecule (ms)",
                  "Molecule/Baseline"});
        for (const auto &fn : Catalog::functionBenchNames()) {
            const auto base = warmE2e(false, fn, 0);
            const auto mol = warmE2e(true, fn, 0);
            t.row({fn, ms(base), ms(mol),
                   Table::num(mol.toMilliseconds() /
                                  base.toMilliseconds(),
                              3)});
        }
        t.print();
    }

    coldTable("Figure 14-c: cold boot on BF-1 DPU", DpuGeneration::Bf1,
              1);
    coldTable("Figure 14-d: cold boot on BF-2 DPU", DpuGeneration::Bf2,
              1);
    return 0;
}
