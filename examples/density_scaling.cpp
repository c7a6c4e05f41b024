/**
 * @file
 * Vertical scaling with DPUs (the Fig 2-a effect), driven by the
 * seeded open-loop load generator: the identical bursty multi-tenant
 * stream (same seed, same TraceSpec, bit-for-bit replay) hits the
 * machine with 0, 1 and 2 BlueField DPUs attached, and the cheap DPU
 * instances absorb the traffic as they appear — the scheduler prices
 * DPU cores below host cores, so added DPUs take load off the host.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"
#include "load/generator.hh"

namespace {

using namespace molecule;

/** Replays every arrival onto the runtime and tallies the outcomes. */
class RuntimeSink final : public load::ArrivalSink
{
  public:
    RuntimeSink(core::Molecule &runtime,
                std::vector<std::string> functions, int puCount)
        : runtime_(runtime), functions_(std::move(functions)),
          perPu_(std::size_t(puCount), 0)
    {}

    void
    onArrival(const load::Arrival &a) override
    {
        runtime_.simulation().spawn(serve(a.fn));
    }

    std::int64_t completed() const { return completed_; }
    std::int64_t errors() const { return errors_; }
    std::int64_t coldStarts() const { return coldStarts_; }
    std::int64_t onPu(std::size_t pu) const { return perPu_.at(pu); }

    std::int64_t
    onDpus() const
    {
        std::int64_t n = 0;
        for (std::size_t pu = 1; pu < perPu_.size(); ++pu)
            n += perPu_[pu];
        return n;
    }

    double
    meanLatencyMs() const
    {
        if (completed_ == 0)
            return 0.0;
        return latencySum_.toSeconds() * 1e3 / double(completed_);
    }

  private:
    sim::Task<>
    serve(std::uint32_t fn)
    {
        auto rec = co_await runtime_.invoke(functions_.at(fn));
        if (!rec.ok()) {
            ++errors_;
            co_return;
        }
        ++completed_;
        if (rec.value().coldStart)
            ++coldStarts_;
        perPu_.at(std::size_t(rec.value().pu)) += 1;
        latencySum_ = latencySum_ + rec.value().endToEnd;
    }

    core::Molecule &runtime_;
    std::vector<std::string> functions_;
    std::vector<std::int64_t> perPu_;
    std::int64_t completed_ = 0;
    std::int64_t errors_ = 0;
    std::int64_t coldStarts_ = 0;
    sim::SimTime latencySum_{0};
};

} // namespace

int
main()
{
    // One spec, replayed per configuration: a bursty (two-state MMPP)
    // stream with two tenants hammering different hot functions.
    load::TraceSpec trace;
    trace.seed = 42;
    trace.ratePerSecond = 120.0;
    trace.duration = sim::SimTime::seconds(20);
    trace.arrival = load::ArrivalKind::Mmpp;
    trace.burstFactor = 4.0;
    trace.functions = {"image-resize", "pyaes", "helloworld"};
    trace.tenants = {
        {"alpha", 3.0, 1.2, 1},
        {"beta", 1.0, 0.8, 2},
    };

    std::printf("stream %016llx: ~%.0f req/s bursty x %.0fs, "
                "%zu functions, %zu tenants\n\n",
                static_cast<unsigned long long>(
                    load::streamDigest(trace)),
                trace.ratePerSecond, trace.duration.toSeconds(),
                trace.functions.size(), trace.tenants.size());

    for (int dpus : {0, 1, 2}) {
        sim::Simulation sim(trace.seed);
        auto computer =
            hw::buildCpuDpuServer(sim, dpus, hw::DpuGeneration::Bf1);

        core::MoleculeOptions options;
        options.startup.warmCapacity = 1u << 10;
        core::Molecule runtime(*computer, options);
        for (const auto &fn : trace.functions)
            runtime.registerCpuFunction(
                fn, {hw::PuType::HostCpu, hw::PuType::Dpu});
        runtime.start();

        RuntimeSink sink(runtime, trace.functions,
                         computer->puCount());
        load::OpenLoopGenerator gen(trace);
        sim.spawn(load::drive(sim, gen, sink));
        sim.run();

        std::printf("CPU + %d DPU: %5lld served (%lld cold, "
                    "%lld failed) — %5lld on the host, "
                    "%5lld on DPUs, mean %6.2f ms\n",
                    dpus, static_cast<long long>(sink.completed()),
                    static_cast<long long>(sink.coldStarts()),
                    static_cast<long long>(sink.errors()),
                    static_cast<long long>(sink.onPu(0)),
                    static_cast<long long>(sink.onDpus()),
                    sink.meanLatencyMs());
    }
    std::printf("\nSame seed, same stream: each BlueField soaks up "
                "invocations the host would otherwise run — DPU "
                "instances are the cheap capacity of Fig 2-a.\n");
    return 0;
}
