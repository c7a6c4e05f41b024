/**
 * @file
 * Figure 9: startup and communication latency against commercial
 * serverless systems (AWS Lambda, OpenWhisk).
 *
 * Startup uses a helloworld function (§6.3); communication uses a
 * two-function image-processing pair with <1 KB messages. Molecule
 * and Molecule-homo are measured by running this stack; AWS Lambda
 * and OpenWhisk are opaque control planes, so their numbers are the
 * calibrated constants of hw/calibration.hh (with provenance there).
 */

#include "bench/common.hh"
#include "hw/calibration.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;

struct Measured
{
    sim::SimTime startup;
    sim::SimTime comm;
};

Measured
measure(MoleculeOptions options)
{
    sim::Simulation sim;
    auto computer = hw::buildCpuDpuServer(sim, 2,
                                          hw::DpuGeneration::Bf1);
    Molecule runtime(*computer, options);
    runtime.registerCpuFunction("helloworld", {PuType::HostCpu});
    runtime.registerCpuFunction("image-resize", {PuType::HostCpu});
    runtime.registerCpuFunction("mr-splitter", {PuType::HostCpu});
    runtime.start();

    Measured out;
    out.startup =
        runtime.runSync(runtime.invoke("helloworld", {.pu = 0}))
            .value()
            .startup;

    // Image-processing pair: front pulls, second processes (<1 KB).
    auto spec = ChainSpec::linear("img-pair",
                                  {"image-resize", "mr-splitter"});
    std::vector<int> placement{0, 0};
    auto rec = runtime.runSync(runtime.invokeChain(spec, placement)).value();
    out.comm = rec.edgeLatencies.at(0);
    return out;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Figure 9: comparison with commercial serverless systems",
           "paper: Molecule 37-46x better startup, 68-300x better "
           "communication; Molecule-homo 5-6x / 4-19x");

    const Measured mol = measure(MoleculeOptions{});
    const Measured homo = measure(MoleculeOptions::homo());
    namespace calib = molecule::hw::calib;
    const auto lambdaS = calib::kLambdaStartup;
    const auto owS = calib::kOpenWhiskStartup;
    const auto lambdaC = calib::kLambdaStepComm;
    const auto owC = calib::kOpenWhiskComm;

    Table a("Figure 9-a: startup latency (ms)");
    a.header({"system", "startup", "vs Molecule"});
    auto ratio = [](molecule::sim::SimTime x, molecule::sim::SimTime y) {
        return Table::num(x.toMilliseconds() / y.toMilliseconds(), 1) +
               "x";
    };
    a.row({"AWS Lambda", ms(lambdaS), ratio(lambdaS, mol.startup)});
    a.row({"OpenWhisk", ms(owS), ratio(owS, mol.startup)});
    a.row({"Molecule-Homo", ms(homo.startup),
           ratio(homo.startup, mol.startup)});
    a.row({"Molecule", ms(mol.startup), "1.0x"});
    a.print();

    Table b("Figure 9-b: communication latency (ms)");
    b.header({"system", "comm", "vs Molecule"});
    b.row({"AWS Lambda (step)", ms(lambdaC), ratio(lambdaC, mol.comm)});
    b.row({"OpenWhisk", ms(owC), ratio(owC, mol.comm)});
    b.row({"Molecule-Homo", ms(homo.comm), ratio(homo.comm, mol.comm)});
    b.row({"Molecule", ms(mol.comm), "1.0x"});
    b.print();
    return 0;
}
