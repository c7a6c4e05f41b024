/**
 * @file
 * Ablation (§5 "Inter-PU synchronization"): what the three state-sync
 * strategies cost.
 *
 *  (1) immediate sync: xfifo_init latency as the PU count grows (the
 *      call returns only after every peer acked);
 *  (2) lazy + batched sync: wire messages for a burst of xfifo_close
 *      reclamations, batched vs flushed per operation;
 *  (3) no-sync (static partitioning): process creation cost is flat in
 *      the PU count because pids never synchronize.
 */

#include "bench/common.hh"
#include "xpu/client.hh"

namespace {

using namespace molecule;
using xpu::TransportKind;

struct World
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer;
    std::vector<std::unique_ptr<os::LocalOs>> oses;
    std::unique_ptr<xpu::XpuShimNetwork> net;
    os::Process *proc = nullptr;
    std::unique_ptr<xpu::XpuClient> client;

    explicit World(int dpus)
    {
        computer = hw::buildCpuDpuServer(sim, dpus,
                                         hw::DpuGeneration::Bf1);
        net = std::make_unique<xpu::XpuShimNetwork>(*computer);
        for (int pu = 0; pu < computer->puCount(); ++pu) {
            oses.push_back(
                std::make_unique<os::LocalOs>(computer->pu(pu)));
            net->addShim(*oses.back(), pu == 0 ? TransportKind::Fifo
                                               : TransportKind::MpscPoll);
        }
        auto boot = [](World *w) -> sim::Task<> {
            w->proc = co_await w->oses[0]->spawnProcess("p", 1 << 20);
        };
        sim.spawn(boot(this));
        sim.run();
        client = std::make_unique<xpu::XpuClient>(net->shimOn(0), *proc);
    }
};

/** Mean xfifo_init latency (immediate broadcast to all peers). */
sim::SimTime
initLatency(int dpus)
{
    World w(dpus);
    obs::Histogram lat;
    auto run = [](World *world, obs::Histogram *out) -> sim::Task<> {
        for (int i = 0; i < 20; ++i) {
            const auto t0 = world->sim.now();
            auto fd = co_await world->client->xfifoInit(
                "f" + std::to_string(i));
            MOLECULE_ASSERT(fd.ok(), "init");
            out->addTime(world->sim.now() - t0);
        }
    };
    w.sim.spawn(run(&w, &lat));
    w.sim.run();
    return sim::SimTime::fromMicroseconds(lat.mean());
}

/** Sync messages + time for 64 close reclamations. */
std::pair<std::int64_t, sim::SimTime>
closeStorm(int dpus, bool batched)
{
    World w(dpus);
    auto &shim = w.net->shimOn(0);
    auto run = [](World *world, bool batch) -> sim::Task<> {
        std::vector<xpu::XpuFd> fds;
        for (int i = 0; i < 64; ++i) {
            auto fd = co_await world->client->xfifoInit(
                "c" + std::to_string(i));
            fds.push_back(fd.value());
        }
        for (auto fd : fds) {
            (void)co_await world->client->xfifoClose(fd);
            if (!batch)
                co_await world->net->shimOn(0).flushLazy();
        }
        co_await world->net->shimOn(0).flushLazy();
    };
    const auto before = shim.syncMessagesSent();
    const auto t0 = w.sim.now();
    w.sim.spawn(run(&w, batched));
    w.sim.run();
    // Subtract the init broadcasts (one per fifo per peer).
    const auto initMsgs = std::int64_t(64 * dpus);
    return {shim.syncMessagesSent() - before - initMsgs,
            w.sim.now() - t0};
}

/** Process spawn cost (pid allocation is statically partitioned). */
sim::SimTime
spawnCost(int dpus)
{
    World w(dpus);
    const auto t0 = w.sim.now();
    auto run = [](World *world) -> sim::Task<> {
        for (int i = 0; i < 8; ++i)
            (void)co_await world->oses[0]->spawnProcess(
                "s" + std::to_string(i), 1 << 20);
    };
    w.sim.spawn(run(&w));
    w.sim.run();
    return (w.sim.now() - t0) / 8.0;
}

} // namespace

int
main()
{
    using namespace molecule::bench;
    using molecule::sim::Table;

    banner("Ablation: inter-PU synchronization strategies",
           "immediate sync pays per peer; lazy batching amortizes "
           "reclamation; static pid partitioning costs nothing");

    Table a("Immediate sync: xfifo_init latency vs machine size");
    a.header({"PUs", "init latency (us)", "spawn (no sync, ms)"});
    for (int dpus : {0, 1, 2, 4, 8}) {
        a.row({std::to_string(dpus + 1), us(initLatency(dpus)),
               ms(spawnCost(dpus))});
    }
    a.print();

    Table b("Lazy sync: 64 xfifo_close reclamations, 2 DPUs");
    b.header({"mode", "reclaim sync messages", "elapsed (ms)"});
    auto batched = closeStorm(2, true);
    auto eager = closeStorm(2, false);
    b.row({"batched (8/batch)", std::to_string(batched.first),
           ms(batched.second)});
    b.row({"flush per close", std::to_string(eager.first),
           ms(eager.second)});
    b.print();
    return 0;
}
