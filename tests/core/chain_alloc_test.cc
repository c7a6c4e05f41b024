/**
 * @file
 * Allocation and frame budgets of the nIPC chain path: once the warm
 * pools, capability replicas and mailboxes have seen a chain of each
 * shape, a steady-state Alexa or MapReduce chain through
 * Molecule::invokeChain reaches the global heap only a few times,
 * opens a few dozen coroutine frames and fires a few dozen queued
 * events. Every operator new in this binary is counted. Under ASan,
 * whose own operator new checks new/delete pairing, the chains run
 * and are checked, and only the allocation and frame budgets are
 * skipped.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "workloads/catalog.hh"
#include "count_new.hh"

namespace {

using namespace molecule;
using core::ChainSpec;
using core::Molecule;
using core::MoleculeOptions;
using hw::PuType;
using workloads::Catalog;

/** A chain shape and its round-robin placement over the general PUs. */
struct Shape
{
    ChainSpec spec;
    std::vector<int> placement;
};

sim::Task<>
runChain(Molecule *runtime, const Shape *shape, int *failures)
{
    std::vector<int> placement = shape->placement;
    auto r = co_await runtime->invokeChain(shape->spec,
                                           std::move(placement));
    if (!r.ok())
        ++*failures;
}

TEST(ChainAllocations, SteadyStateChainsStayWithinBudget)
{
    sim::Simulation sim(1);
    auto computer = hw::buildCpuDpuServer(sim, 2, hw::DpuGeneration::Bf2);
    Molecule runtime(*computer, MoleculeOptions{});
    for (const auto &fn : Catalog::alexaChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    for (const auto &fn : Catalog::mapReduceChain())
        runtime.registerCpuFunction(fn, {PuType::HostCpu, PuType::Dpu});
    runtime.start();

    const std::vector<int> &pus = runtime.deployment().generalPus();
    std::vector<Shape> shapes;
    for (const ChainSpec &spec :
         {ChainSpec::linear("alexa", Catalog::alexaChain()),
          ChainSpec::linear("mapreduce", Catalog::mapReduceChain())}) {
        Shape shape;
        shape.spec = spec;
        for (std::size_t i = 0; i < spec.nodes.size(); ++i)
            shape.placement.push_back(pus[i % pus.size()]);
        shapes.push_back(std::move(shape));
    }

    // Two of each shape in flight per round, like a loaded node.
    int failures = 0;
    auto round = [&] {
        for (int copy = 0; copy < 2; ++copy)
            for (const Shape &shape : shapes)
                sim.spawn(runChain(&runtime, &shape, &failures));
        sim.run();
    };
    // Prewarm: size the warm pools, replica tables, mailboxes and the
    // lazy-reclamation batches.
    for (int r = 0; r < 8; ++r)
        round();

    constexpr int kRounds = 16;
    const std::uint64_t before = g_allocCount;
    const std::uint64_t framesBefore = sim::detail::FramePool::allocated();
    const std::uint64_t eventsBefore = sim.eventsFired();
    const std::uint64_t parksBefore = sim.wheelParks();
    for (int r = 0; r < kRounds; ++r)
        round();
    const double chains = double(kRounds * 2 * shapes.size());
    const double eventsPerChain =
        double(sim.eventsFired() - eventsBefore) / chains;
    const double perChain = double(g_allocCount - before) / chains;
    const double framesPerChain =
        double(sim::detail::FramePool::allocated() - framesBefore) / chains;
    std::printf("global allocations per chain: %.1f\n", perChain);
    std::printf("coroutine frames per chain: %.1f\n", framesPerChain);
    std::printf("queued events per chain: %.2f\n", eventsPerChain);
    const double parksPerEvent =
        double(sim.wheelParks() - parksBefore) /
        double(sim.eventsFired() - eventsBefore);
    std::printf("wheel parks per queued event: %.6f\n", parksPerEvent);

    EXPECT_EQ(failures, 0);
    // The wake-ups that could not run ahead (DESIGN.md §4b), pinned
    // at their reading (158.97; 169.0 before a Join's waiter resumed
    // in place). Four chains share the PUs, so most delays wait
    // behind another chain's event. Event counts do not depend on the
    // allocator, so this holds under ASan too.
    EXPECT_LE(eventsPerChain, 159.0);
    // Pinned at its reading (0): the event queue's near array holds
    // every event at this depth (DESIGN.md §4b).
    EXPECT_EQ(parksPerEvent, 0.0);
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan replaces operator new: the path ran, nothing "
                    "was counted";
#endif
    // Pinned at its reading (3.53: 226 over 64 chains; 3.59 while
    // every process holding a grant had a CAP_Group vector).
    EXPECT_LE(perChain, 3.55);
    // One frame per XPUcall, per broadcast peer delivery and per node's
    // invoke, incoming edge and execution, plus the chain's own
    // (DESIGN.md §4b).
    EXPECT_LE(framesPerChain, 58.0);
}

} // namespace
