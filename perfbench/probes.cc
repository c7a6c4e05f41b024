#include "probes.hh"

#include <algorithm>

namespace perfbench {

Profiler::Profiler()
{
    // Median over batches of back-to-back reads: robust to the odd
    // preemption while calibrating.
    constexpr int kBatches = 21;
    constexpr int kReads = 2000;
    std::array<double, kBatches> perRead{};
    for (int b = 0; b < kBatches; ++b) {
        const std::int64_t t0 = wallNs();
        for (int i = 0; i < kReads; ++i)
            (void)wallNs();
        const std::int64_t t1 = wallNs();
        perRead[std::size_t(b)] = double(t1 - t0) / double(kReads);
    }
    std::sort(perRead.begin(), perRead.end());
    clockNs_ = perRead[kBatches / 2];
}

sim::Task<>
timedDrive(sim::Simulation &sim, load::OpenLoopGenerator &gen,
           load::ArrivalSink &sink, Profiler &prof)
{
    const sim::SimTime epoch = sim.now();
    load::Arrival a;
    for (;;) {
        bool more;
        {
            Scope s(&prof, kGenNext);
            more = gen.next(a);
        }
        if (!more)
            break;
        const sim::SimTime at = epoch + a.at;
        if (at > sim.now())
            co_await sim.delay(at - sim.now());
        a.at = at;
        sink.onArrival(a);
    }
}

} // namespace perfbench
