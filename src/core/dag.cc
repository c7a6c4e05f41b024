#include "core/dag.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"
#include "sim/sync.hh"

namespace molecule::core {

namespace calib = hw::calib;

ChainSpec
ChainSpec::linear(const std::string &name,
                  const std::vector<std::string> &fns)
{
    ChainSpec spec;
    spec.name = name;
    spec.nodes.reserve(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i)
        spec.nodes.push_back(ChainNode{fns[i], int(i) - 1});
    return spec;
}

/** Per-node communication state for one chain execution. */
struct DagEngine::Endpoint
{
    const FunctionDef *def = nullptr;
    AcquiredInstance acq;
    int pu = -1;
    /** Direct-connect local FIFO; only when the incoming edge stays
     * on this PU. */
    os::LocalFifo *localFifo = nullptr;
    std::string fifoName;
    /** XPUcall client + self XPU-FIFO (cross-PU edges). */
    std::unique_ptr<xpu::XpuClient> client;
    xpu::XpuFd selfFd = -1;
    /** Writer-side fd of the incoming cross-PU edge, held by the
     * parent's client (or the gateway's, for the root). */
    xpu::XpuFd inFd = -1;
};

namespace {

/** Everything one chain execution shares. */
struct RunContext
{
    DagEngine *engine = nullptr;
    Deployment *dep = nullptr;
    const ChainSpec *spec = nullptr;
    const std::vector<int> *placement = nullptr;
    DagCommMode mode = DagCommMode::MoleculeIpc;
    int managerPu = 0;
    /** Causal root for every span of this chain execution. */
    obs::SpanContext trace;
    std::vector<DagEngine::Endpoint> eps;
    /** Gateway-side process and client used for the entry edge. */
    os::Process *gatewayProc = nullptr;
    std::unique_ptr<xpu::XpuClient> gatewayClient;
    std::vector<sim::SimTime> edgeLatency; // per node; root = entry
    std::vector<sim::SimTime> execEnd;     // per node
    std::vector<std::vector<int>> children;
    /** Writer-side closes still running (detached). */
    int closesInFlight = 0;
    /** Set by a teardown waiting for those closes. */
    sim::SimEvent *closesDone = nullptr;
};

sim::SimTime
dispatchCost(const FunctionDef &def, DagCommMode mode)
{
    const bool node = def.cpuWork->image.language ==
                      sandbox::Language::Node;
    if (mode == DagCommMode::BaselineHttp)
        return node ? calib::kExpressDispatch : calib::kFlaskDispatch;
    return node ? calib::kFifoDispatchNode : calib::kFifoDispatchPython;
}

/** Close a writer's end of a cross-PU edge after its one write. */
sim::Task<>
closeWriter(RunContext *ctx, xpu::XpuClient *writer, xpu::XpuFd fd)
{
    // Fails only when a crash already took the FIFO with it.
    core::Status st = co_await writer->xfifoClose(fd);
    (void)st;
    if (--ctx->closesInFlight == 0 && ctx->closesDone != nullptr)
        ctx->closesDone->trigger();
}

/**
 * Move one message from @p fromNode (-1: gateway) into @p toNode's
 * instance, charging the full path of the selected mode.
 */
sim::Task<>
edgeTransfer(RunContext *ctx, int fromNode, int toNode,
             obs::SpanContext spanCtx)
{
    auto &to = ctx->eps[std::size_t(toNode)];
    const int fromPu = fromNode < 0
                           ? ctx->managerPu
                           : ctx->eps[std::size_t(fromNode)].pu;
    auto &fromOs = ctx->dep->osOn(fromPu);
    auto &toOs = ctx->dep->osOn(to.pu);
    const std::uint64_t bytes = to.def->cpuWork->msgBytes;

    if (ctx->mode == DagCommMode::BaselineHttp) {
        // HTTP request through both network stacks + the wire.
        co_await fromOs.simulation().delay(
            fromOs.pu().netCost(calib::kHttpEdgeEndpointCost));
        co_await ctx->dep->computer().topology().transfer(fromPu, to.pu,
                                                          bytes,
                                                          spanCtx);
        co_await toOs.simulation().delay(
            toOs.pu().netCost(calib::kHttpEdgeEndpointCost));
    } else {
        // Direct connect: serialize, write the callee's FIFO (local
        // FIFO on the same PU, XPU-FIFO across PUs), deserialize.
        co_await fromOs.simulation().delay(
            fromOs.pu().netCost(calib::kIpcSerializeCost));
        if (fromPu == to.pu) {
            os::FifoMessage msg{bytes, "req"};
            co_await to.localFifo->write(msg);
            (void)co_await to.localFifo->read();
        } else {
            xpu::XpuClient *writer =
                fromNode < 0 ? ctx->gatewayClient.get()
                             : ctx->eps[std::size_t(fromNode)].client.get();
            MOLECULE_ASSERT(to.inFd >= 0,
                            "missing xfifo connection %d->%d", fromNode,
                            toNode);
            core::Status st =
                co_await writer->xfifoWrite(to.inFd, bytes, "req");
            MOLECULE_ASSERT(st.ok(), "xfifo write failed: %s",
                            st.toString().c_str());
            // The edge carries one message, so the writer closes its
            // end now, off the critical path.
            ++ctx->closesInFlight;
            fromOs.simulation().spawn(closeWriter(ctx, writer, to.inFd));
            auto r = co_await to.client->xfifoRead(to.selfFd);
            MOLECULE_ASSERT(r.ok(), "xfifo read failed: %s",
                            r.error().toString().c_str());
        }
        co_await toOs.simulation().delay(
            toOs.pu().netCost(calib::kIpcSerializeCost));
    }
    // Receiver-side per-request dispatch (HTTP router vs FIFO loop).
    {
        obs::Span disp(spanCtx, "os.dispatch", obs::Layer::Os, to.pu);
        co_await toOs.simulation().delay(
            toOs.pu().netCost(dispatchCost(*to.def, ctx->mode)));
    }
}

/** Execute node @p idx and fan out to its children. */
sim::Task<>
runNode(RunContext *ctx, int idx, sim::SimTime upstreamDone)
{
    auto &ep = ctx->eps[std::size_t(idx)];
    auto &sim = ctx->dep->simulation();
    const int parent = ctx->spec->nodes[std::size_t(idx)].parent;

    // One span per node invocation, parented on the chain root; the
    // edge + dispatch work nests under a "comm" child (Fig 12 path).
    obs::Span span(ctx->trace, "invoke", obs::Layer::Core, ep.pu);
    span.setDetail(ctx->spec->nodes[std::size_t(idx)].fn.c_str());
    {
        obs::Span comm(span.ctx(), "comm", obs::Layer::Core, ep.pu);
        co_await edgeTransfer(ctx, parent, idx, comm.ctx());
    }
    ctx->edgeLatency[std::size_t(idx)] = sim.now() - upstreamDone;

    const auto exec = ep.acq.cold
                          ? ep.def->cpuWork->execCost *
                                ep.def->cpuWork->coldExecFactor
                          : ep.def->cpuWork->execCost;
    core::Status st = co_await ctx->dep->runcOn(ep.pu).invoke(
        *ep.acq.instance, exec, span.ctx());
    MOLECULE_ASSERT(st.ok(), "chain node exec failed: %s",
                    st.toString().c_str());
    ctx->execEnd[std::size_t(idx)] = sim.now();
    span.finish();

    std::vector<sim::Task<>> kids;
    kids.reserve(ctx->children[std::size_t(idx)].size());
    for (int child : ctx->children[std::size_t(idx)])
        kids.push_back(runNode(ctx, child, sim.now()));
    co_await sim::allOf(sim, std::move(kids));
}

} // namespace

sim::Task<obs::ChainRecord>
DagEngine::run(const ChainSpec &spec, const std::vector<int> &placement,
               DagCommMode mode, bool prewarm, int managerPu,
               obs::SpanContext ctx)
{
    MOLECULE_ASSERT(placement.size() == spec.nodes.size(),
                    "placement size mismatch");
    auto &sim = dep_.simulation();

    RunContext run;
    run.engine = this;
    run.dep = &dep_;
    run.spec = &spec;
    run.placement = &placement;
    run.mode = mode;
    run.managerPu = managerPu;
    run.trace = ctx;
    run.eps.resize(spec.nodes.size());
    run.edgeLatency.resize(spec.nodes.size());
    run.execEnd.resize(spec.nodes.size());
    run.children.resize(spec.nodes.size());
    for (std::size_t i = 0; i < spec.nodes.size(); ++i)
        if (spec.nodes[i].parent >= 0)
            run.children[std::size_t(spec.nodes[i].parent)].push_back(
                int(i));

    const sim::SimTime setupStart = sim.now();

    // Acquire all instances (pre-boot when prewarm).
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const FunctionDef &def = registry_.find(spec.nodes[i].fn);
        auto &ep = run.eps[i];
        ep.def = &def;
        ep.pu = placement[i];
        ep.acq = co_await startup_.acquire(def, ep.pu, managerPu, ctx);
        MOLECULE_ASSERT(ep.acq.instance != nullptr,
                        "chain instance acquisition failed");
    }

    // Wire the direct-connect fabric (Molecule mode only).
    if (mode == DagCommMode::MoleculeIpc) {
        // Gateway-side process for the entry edge.
        run.gatewayProc = co_await dep_.osOn(managerPu).spawnProcess(
            "gateway/" + spec.name, 1 << 20, ctx);
        MOLECULE_ASSERT(run.gatewayProc != nullptr, "gateway spawn failed");
        run.gatewayClient = std::make_unique<xpu::XpuClient>(
            dep_.shimOn(managerPu), *run.gatewayProc);
        run.gatewayClient->setTraceContext(ctx);

        for (std::size_t i = 0; i < run.eps.size(); ++i) {
            auto &ep = run.eps[i];
            const int parent = spec.nodes[i].parent;
            const int fromPu = parent < 0
                                   ? managerPu
                                   : run.eps[std::size_t(parent)].pu;
            ep.fifoName = "self/" + spec.name + "/" +
                          std::to_string(nextUuid_++);
            if (fromPu == ep.pu)
                ep.localFifo =
                    dep_.osOn(ep.pu).createFifo(ep.fifoName + "/local");
            ep.client = std::make_unique<xpu::XpuClient>(
                dep_.shimOn(ep.pu), *ep.acq.instance->proc);
            ep.client->setTraceContext(ctx);
            auto fd = co_await ep.client->xfifoInit(ep.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo init failed: %s",
                            fd.error().toString().c_str());
            ep.selfFd = fd.value();
        }
        // Connect writers: parent -> child (and gateway -> root) when
        // the edge crosses PUs; the owner grants Write first.
        for (std::size_t i = 0; i < run.eps.size(); ++i) {
            auto &child = run.eps[i];
            const int parent = spec.nodes[i].parent;
            const int fromPu = parent < 0
                                   ? managerPu
                                   : run.eps[std::size_t(parent)].pu;
            if (fromPu == child.pu)
                continue;
            xpu::XpuClient *writer =
                parent < 0 ? run.gatewayClient.get()
                           : run.eps[std::size_t(parent)].client.get();
            const xpu::ObjId obj = child.client->objectOf(child.selfFd);
            auto st = co_await child.client->grantCap(
                writer->xpuPid(), obj, xpu::Perm::Write);
            MOLECULE_ASSERT(st.ok(), "grant failed: %s",
                            st.toString().c_str());
            auto fd = co_await writer->xfifoConnect(child.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo connect failed: %s",
                            fd.error().toString().c_str());
            child.inFd = fd.value();
        }
    }

    const sim::SimTime t0 = prewarm ? sim.now() : setupStart;
    co_await runNode(&run, 0, t0);

    obs::ChainRecord record;
    record.chain = spec.name;
    record.traceId = ctx.trace;
    sim::SimTime finish = t0;
    for (std::size_t i = 0; i < run.execEnd.size(); ++i)
        finish = std::max(finish, run.execEnd[i]);
    record.endToEnd = finish - t0;
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        if (spec.nodes[i].parent >= 0)
            record.edgeLatencies.push_back(run.edgeLatency[i]);
        obs::InvocationRecord inv;
        inv.function = spec.nodes[i].fn;
        inv.traceId = ctx.trace;
        inv.pu = run.eps[i].pu;
        inv.coldStart = run.eps[i].acq.cold;
        inv.startup = run.eps[i].acq.startupTime;
        inv.communication = run.edgeLatency[i];
        inv.execution = run.eps[i].def->cpuWork->execCost;
        record.invocations.push_back(std::move(inv));
    }

    // The clients must outlive their writers' closes.
    if (run.closesInFlight > 0) {
        sim::SimEvent closesDone(sim);
        run.closesDone = &closesDone;
        co_await closesDone.wait();
    }
    // Return instances to the keep-alive cache; drop comm plumbing.
    // Each owner's close is its FIFO's last, which reclaims it.
    for (std::size_t i = 0; i < run.eps.size(); ++i) {
        auto &ep = run.eps[i];
        if (ep.client && ep.selfFd >= 0)
            (void)co_await ep.client->xfifoClose(ep.selfFd);
        if (ep.localFifo)
            dep_.osOn(ep.pu).removeFifo(ep.fifoName + "/local");
        co_await startup_.release(*ep.def, ep.acq);
    }
    // The entry-edge process dies with the chain (no sim time).
    if (run.gatewayProc != nullptr)
        dep_.osOn(managerPu).exitProcess(*run.gatewayProc);
    co_return record;
}

sim::Task<obs::ChainRecord>
DagEngine::runFpgaChain(const std::vector<std::string> &fns,
                        int fpgaIndex, bool shmOptimization,
                        std::uint64_t messageBytes, obs::SpanContext ctx)
{
    std::vector<std::string> owned_fns = fns;
    auto &sim = dep_.simulation();
    auto &runf = dep_.runf(fpgaIndex);

    // Make the whole chain resident as one vectorized image, then
    // warm every sandbox (pre-boot, as in Fig 13's measurement).
    startup_.setFpgaHotSet(fpgaIndex, owned_fns);
    for (const auto &fn : owned_fns) {
        const FunctionDef &def = registry_.find(fn);
        auto acq = co_await startup_.acquireFpga(def, fpgaIndex, ctx);
        MOLECULE_ASSERT(acq.ok(), "fpga chain warm-up failed: %s",
                        acq.error().toString().c_str());
    }

    const sim::SimTime t0 = sim.now();
    obs::ChainRecord record;
    record.chain = "fpga-chain";
    sim::SimTime prevDone = t0;
    for (std::size_t i = 0; i < owned_fns.size(); ++i) {
        const FunctionDef &def = registry_.find(owned_fns[i]);
        const bool zeroIn = shmOptimization && i > 0;
        const bool zeroOut = shmOptimization && i + 1 < owned_fns.size();
        co_await runf.invoke("fpga/" + owned_fns[i],
                             def.fpgaWork->kernelTime(messageBytes),
                             messageBytes, messageBytes, zeroIn,
                             zeroOut, ctx);
        if (i > 0)
            record.edgeLatencies.push_back(sim.now() - prevDone);
        prevDone = sim.now();
    }
    record.endToEnd = sim.now() - t0;
    co_return record;
}

} // namespace molecule::core
