/**
 * @file
 * Figure 8: nIPC latency vs message size under the three XPUcall
 * transports, against local Linux FIFOs on the DPU and the host CPU.
 *
 * A caller process on the BF-1 DPU issues xfifo_write to an XPU-FIFO
 * homed on the host CPU and measures the call latency (§6.1). The
 * Linux rows time a local named-FIFO one-way transfer on each PU.
 */

#include "bench/common.hh"
#include "xpu/client.hh"

namespace {

using namespace molecule;
using namespace molecule::sim::literals;
using xpu::TransportKind;

struct Harness
{
    sim::Simulation sim;
    std::unique_ptr<hw::Computer> computer =
        hw::buildCpuDpuServer(sim, 1, hw::DpuGeneration::Bf1);
    os::LocalOs cpuOs{computer->pu(0)};
    os::LocalOs dpuOs{computer->pu(1)};
    xpu::XpuShimNetwork net{*computer};
    xpu::XpuShim *cpuShim = net.addShim(cpuOs, TransportKind::Fifo);
    xpu::XpuShim *dpuShim = net.addShim(dpuOs, TransportKind::MpscPoll);
    os::Process *cpuProc = nullptr;
    os::Process *dpuProc = nullptr;
    std::unique_ptr<xpu::XpuClient> cpuClient;
    std::unique_ptr<xpu::XpuClient> dpuClient;
    int fifoCounter = 0;

    Harness()
    {
        auto boot = [](Harness *h) -> sim::Task<> {
            h->cpuProc = co_await h->cpuOs.spawnProcess("reader", 1 << 20);
            h->dpuProc = co_await h->dpuOs.spawnProcess("caller", 1 << 20);
        };
        sim.spawn(boot(this));
        sim.run();
        cpuClient = std::make_unique<xpu::XpuClient>(*cpuShim, *cpuProc);
        dpuClient = std::make_unique<xpu::XpuClient>(*dpuShim, *dpuProc);
    }

    /** Mean xfifo_write latency from the DPU for one transport. */
    sim::SimTime
    nipcWrite(TransportKind kind, std::uint64_t bytes, int iters)
    {
        dpuShim->setTransport(kind);
        const std::string uuid = "fig8-" + std::to_string(fifoCounter++);
        obs::Histogram lat;

        auto setup = [](Harness *h, std::string id) -> sim::Task<> {
            auto fd = co_await h->cpuClient->xfifoInit(id);
            const xpu::ObjId obj = h->cpuClient->objectOf(fd.value());
            (void)co_await h->cpuClient->grantCap(
                h->dpuClient->xpuPid(), obj, xpu::Perm::Write);
        };
        sim.spawn(setup(this, uuid));
        sim.run();

        auto measure = [](Harness *h, std::string id, std::uint64_t sz,
                          int n, obs::Histogram *out) -> sim::Task<> {
            auto fd = co_await h->dpuClient->xfifoConnect(id);
            for (int i = 0; i < n; ++i) {
                const auto t0 = h->sim.now();
                (void)co_await h->dpuClient->xfifoWrite(fd.value(), sz, "m");
                out->addTime(h->sim.now() - t0);
            }
        };
        sim.spawn(measure(this, uuid, bytes, iters, &lat));
        sim.run();
        return sim::SimTime::fromMicroseconds(lat.mean());
    }

    /** Mean local Linux FIFO one-way latency on @p os. */
    sim::SimTime
    linuxFifo(os::LocalOs &os, std::uint64_t bytes, int iters)
    {
        const std::string name = "lf-" + std::to_string(fifoCounter++);
        os.createFifo(name);
        obs::Histogram lat;
        auto measure = [](os::LocalOs *o, std::string fifo,
                          std::uint64_t sz, int n,
                          obs::Histogram *out) -> sim::Task<> {
            auto *f = o->findFifo(fifo);
            for (int i = 0; i < n; ++i) {
                const auto t0 = o->simulation().now();
                os::FifoMessage msg{sz, "m"};
                co_await f->write(msg);
                (void)co_await f->read();
                out->addTime(o->simulation().now() - t0);
            }
        };
        sim.spawn(measure(&os, name, bytes, iters, &lat));
        sim.run();
        return sim::SimTime::fromMicroseconds(lat.mean());
    }
};

} // namespace

int
main()
{
    using molecule::bench::banner;
    using molecule::bench::us;

    banner("Figure 8: nIPC latency",
           "xfifo_write from a BF-1 DPU caller; avg of 50 calls; "
           "nIPC spans ~25us (Poll) to ~144us+ (Base), Linux DPU "
           "between, Linux CPU below");

    Harness h;
    molecule::sim::Table t("Figure 8: latency (us) vs message size");
    t.header({"msg size", "nIPC-Base", "nIPC-MPSC", "nIPC-Poll",
              "Linux (DPU)", "Linux (CPU)"});
    const int iters = 50;
    for (std::uint64_t bytes : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
        t.row({std::to_string(bytes) + "B",
               us(h.nipcWrite(TransportKind::Fifo, bytes, iters)),
               us(h.nipcWrite(TransportKind::Mpsc, bytes, iters)),
               us(h.nipcWrite(TransportKind::MpscPoll, bytes, iters)),
               us(h.linuxFifo(h.dpuOs, bytes, iters)),
               us(h.linuxFifo(h.cpuOs, bytes, iters))});
    }
    t.print();
    return 0;
}
