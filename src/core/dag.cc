#include "core/dag.hh"

#include <optional>

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

/**
 * One node's state for one chain execution. Endpoint arrays are
 * pooled by the engine, so their names keep their buffers from run
 * to run; reset() clears the rest.
 */
struct DagEngine::Endpoint
{
    AcquiredInstance acq;
    /** Direct-connect local FIFO; only when the incoming edge stays
     * on this PU. */
    os::LocalFifo *localFifo = nullptr;
    std::string fifoName;
    /** fifoName + "/local", the local FIFO's name. */
    std::string localName;
    /** XPUcall client + self XPU-FIFO (cross-PU edges). */
    std::optional<xpu::XpuClient> client;
    xpu::XpuFd selfFd = -1;
    /** Writer-side fd of the incoming cross-PU edge, held by the
     * parent's client (or the gateway's, for the root). */
    xpu::XpuFd inFd = -1;
    /** Entry edge (root) or parent edge latency. */
    sim::SimTime edgeLatency;
    sim::SimTime execEnd;

    void
    reset()
    {
        acq = AcquiredInstance{};
        localFifo = nullptr;
        client.reset();
        selfFd = -1;
        inFd = -1;
        edgeLatency = sim::SimTime();
        execEnd = sim::SimTime();
    }
};

DagEngine::DagEngine(Deployment &dep, StartupManager &startup,
                     const FunctionRegistry &registry)
    : dep_(dep), startup_(startup), registry_(registry)
{}

DagEngine::~DagEngine() = default;

namespace {

/** FNV-1a over the inputs that select a plan. */
std::uint64_t
planKey(const ChainSpec &spec, const std::vector<int> &placement,
        int managerPu)
{
    std::uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
    auto mixString = [&mix](const std::string &s) {
        for (char c : s)
            mix(std::uint8_t(c));
        mix(0x100); // terminator: "ab"+"c" differs from "a"+"bc"
    };
    mixString(spec.name);
    for (const ChainNode &node : spec.nodes) {
        mixString(node.fn);
        mix(std::uint32_t(node.parent));
    }
    for (int pu : placement)
        mix(std::uint32_t(pu));
    mix(std::uint32_t(managerPu));
    return h;
}

/** Everything one chain execution shares. */
struct RunContext
{
    RunContext(Deployment &d, const ChainPlan &p, DagCommMode m,
               obs::SpanContext t,
               std::vector<DagEngine::Endpoint> &endpoints)
        : dep(&d), plan(&p), mode(m), trace(t), eps(endpoints),
          writerCloses(d.simulation())
    {}

    Deployment *dep;
    const ChainPlan *plan;
    DagCommMode mode;
    /** Causal root for every span of this chain execution. */
    obs::SpanContext trace;
    /** One per node (the array may be longer). */
    std::vector<DagEngine::Endpoint> &eps;
    /** Gateway-side process and client used for the entry edge. */
    os::Process *gatewayProc = nullptr;
    std::optional<xpu::XpuClient> gatewayClient;
    /** Writer-side closes, detached; the clients must outlive them. */
    sim::Join writerCloses;

    /** Client writing into @p node's self-FIFO (gateway for the root). */
    xpu::XpuClient &
    writerOf(int node)
    {
        const int parent = plan->spec.nodes[std::size_t(node)].parent;
        return parent < 0 ? *gatewayClient
                          : *eps[std::size_t(parent)].client;
    }
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

/**
 * Node @p idx's incoming edge: one message from the parent (or the
 * gateway, for the root) over the full path of the selected mode,
 * under a "comm" span. A frame of its own, so the long-lived node
 * frame does not carry the edge's spans, results and awaiters through
 * the node's execution and fan-out.
 */
sim::Task<>
runEdge(RunContext *ctx, int idx, obs::SpanContext parent)
{
    const ChainPlan &plan = *ctx->plan;
    auto &ep = ctx->eps[std::size_t(idx)];
    const FunctionDef &def = *plan.defs[std::size_t(idx)];
    const int pu = plan.placement[std::size_t(idx)];
    auto &sim = ctx->dep->simulation();

    obs::Span comm(parent, "comm", obs::Layer::Core, pu);
    const int fromPu = plan.fromPu[std::size_t(idx)];
    auto &fromOs = ctx->dep->osOn(fromPu);
    auto &toOs = ctx->dep->osOn(pu);
    const std::uint64_t bytes = def.cpuWork->msgBytes;
    if (ctx->mode == DagCommMode::BaselineHttp) {
        // HTTP request through both network stacks + the wire.
        co_await sim.delay(
            fromOs.pu().netCost(calib::kHttpEdgeEndpointCost));
        co_await ctx->dep->computer().topology().transfer(
            fromPu, pu, bytes, comm.ctx());
        co_await sim.delay(
            toOs.pu().netCost(calib::kHttpEdgeEndpointCost));
    } else {
        // Direct connect: serialize, write the callee's FIFO (local
        // FIFO on the same PU, XPU-FIFO across PUs), deserialize.
        co_await sim.delay(fromOs.pu().netCost(calib::kIpcSerializeCost));
        if (!plan.crossesPu(std::size_t(idx))) {
            os::FifoMessage msg{bytes, "req"};
            co_await ep.localFifo->write(msg);
            (void)co_await ep.localFifo->read();
        } else {
            xpu::XpuClient *writer = &ctx->writerOf(idx);
            MOLECULE_ASSERT(ep.inFd >= 0,
                            "missing xfifo connection to %d", idx);
            core::Status st =
                co_await writer->xfifoWrite(ep.inFd, bytes, "req");
            MOLECULE_ASSERT(st.ok(), "xfifo write failed: %s",
                            st.toString().c_str());
            // The edge carries one message, so the writer closes its
            // end now, off the critical path. It fails only when a
            // crash already took the FIFO with it.
            ctx->writerCloses.spawn(writer->xfifoClose(ep.inFd));
            auto r = co_await ep.client->xfifoRead(ep.selfFd);
            MOLECULE_ASSERT(r.ok(), "xfifo read failed: %s",
                            r.error().toString().c_str());
        }
        co_await sim.delay(toOs.pu().netCost(calib::kIpcSerializeCost));
    }
    // Receiver-side per-request dispatch (HTTP router vs FIFO loop).
    obs::Span disp(comm.ctx(), "os.dispatch", obs::Layer::Os, pu);
    co_await sim.delay(toOs.pu().netCost(dispatchCost(def, ctx->mode)));
}

/**
 * Execute node @p idx and fan out to its children, after its incoming
 * edge (runEdge).
 */
sim::Task<>
runNode(RunContext *ctx, int idx, sim::SimTime upstreamDone)
{
    const ChainPlan &plan = *ctx->plan;
    auto &ep = ctx->eps[std::size_t(idx)];
    const FunctionDef &def = *plan.defs[std::size_t(idx)];
    const int pu = plan.placement[std::size_t(idx)];
    auto &sim = ctx->dep->simulation();

    // One span per node invocation, parented on the chain root; the
    // edge + dispatch work nests under a "comm" child (Fig 12 path).
    obs::Span span(ctx->trace, "invoke", obs::Layer::Core, pu);
    span.setDetail(plan.spec.nodes[std::size_t(idx)].fn.c_str());
    co_await runEdge(ctx, idx, span.ctx());
    ep.edgeLatency = sim.now() - upstreamDone;

    const auto exec = ep.acq.cold ? def.cpuWork->execCost *
                                        def.cpuWork->coldExecFactor
                                  : def.cpuWork->execCost;
    core::Status st = co_await ctx->dep->runcOn(pu).invoke(
        *ep.acq.instance, exec, span.ctx());
    MOLECULE_ASSERT(st.ok(), "chain node exec failed: %s",
                    st.toString().c_str());
    ep.execEnd = sim.now();
    span.finish();

    sim::Join kids(sim);
    for (int child : plan.children[std::size_t(idx)])
        kids.spawn(runNode(ctx, child, sim.now()));
    co_await kids.wait();
}

} // namespace

const ChainPlan &
DagEngine::plan(const ChainSpec &spec, const std::vector<int> &placement,
                int managerPu)
{
    MOLECULE_ASSERT(placement.size() == spec.nodes.size(),
                    "placement size mismatch");
    const std::uint64_t key = planKey(spec, placement, managerPu);
    const auto [lo, hi] = plans_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
        const ChainPlan &p = *it->second;
        if (p.spec == spec && p.placement == placement &&
            p.managerPu == managerPu)
            return p;
    }

    auto p = std::make_unique<ChainPlan>();
    p->spec = spec;
    p->placement = placement;
    p->managerPu = managerPu;
    p->children.resize(spec.nodes.size());
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
        const int parent = spec.nodes[i].parent;
        p->defs.push_back(&registry_.find(spec.nodes[i].fn));
        p->fromPu.push_back(parent < 0 ? managerPu
                                       : placement[std::size_t(parent)]);
        if (p->crossesPu(i))
            p->crossPuEdges.push_back(int(i));
        if (parent >= 0)
            p->children[std::size_t(parent)].push_back(int(i));
    }
    p->fifoPrefix = "self/" + spec.name + "/";
    p->gatewayProcess = "gateway/" + spec.name;
    return *plans_.emplace(key, std::move(p))->second;
}

std::vector<DagEngine::Endpoint>
DagEngine::takeEndpoints(std::size_t n)
{
    std::vector<Endpoint> eps = spareEndpoints_.take();
    // Never shrunk: a shorter chain leaves the tail's buffers alone.
    if (eps.size() < n)
        eps.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        eps[i].reset();
    return eps;
}

sim::Task<obs::ChainRecord>
DagEngine::run(const ChainPlan &plan, DagCommMode mode, bool prewarm,
               obs::SpanContext ctx)
{
    auto &sim = dep_.simulation();
    const std::size_t n = plan.spec.nodes.size();
    const int managerPu = plan.managerPu;

    std::vector<Endpoint> eps = takeEndpoints(n);
    RunContext run(dep_, plan, mode, ctx, eps);

    const sim::SimTime setupStart = sim.now();

    // Acquire all instances (pre-boot when prewarm).
    for (std::size_t i = 0; i < n; ++i) {
        auto &ep = eps[i];
        ep.acq = co_await startup_.acquire(*plan.defs[i], plan.placement[i],
                                           managerPu, ctx);
        MOLECULE_ASSERT(ep.acq.instance != nullptr,
                        "chain instance acquisition failed");
    }

    // Wire the direct-connect fabric (Molecule mode only).
    if (mode == DagCommMode::MoleculeIpc) {
        // Gateway-side process for the entry edge.
        run.gatewayProc = co_await dep_.osOn(managerPu).spawnProcess(
            plan.gatewayProcess, 1 << 20, ctx);
        MOLECULE_ASSERT(run.gatewayProc != nullptr, "gateway spawn failed");
        run.gatewayClient.emplace(dep_.shimOn(managerPu), *run.gatewayProc);
        run.gatewayClient->setTraceContext(ctx);

        for (std::size_t i = 0; i < n; ++i) {
            auto &ep = eps[i];
            const int pu = plan.placement[i];
            ep.fifoName = plan.fifoPrefix;
            ep.fifoName += std::to_string(nextUuid_++);
            if (!plan.crossesPu(i)) {
                ep.localName = ep.fifoName;
                ep.localName += "/local";
                ep.localFifo = dep_.osOn(pu).createFifo(ep.localName);
            }
            ep.client.emplace(dep_.shimOn(pu), *ep.acq.instance->proc);
            ep.client->setTraceContext(ctx);
            auto fd = co_await ep.client->xfifoInit(ep.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo init failed: %s",
                            fd.error().toString().c_str());
            ep.selfFd = fd.value();
        }
        // Connect writers: parent -> child (and gateway -> root) when
        // the edge crosses PUs; the owner grants Write first.
        for (int i : plan.crossPuEdges) {
            auto &child = eps[std::size_t(i)];
            xpu::XpuClient &writer = run.writerOf(i);
            const xpu::ObjId obj = child.client->objectOf(child.selfFd);
            auto st = co_await child.client->grantCap(
                writer.xpuPid(), obj, xpu::Perm::Write);
            MOLECULE_ASSERT(st.ok(), "grant failed: %s",
                            st.toString().c_str());
            auto fd = co_await writer.xfifoConnect(child.fifoName);
            MOLECULE_ASSERT(fd.ok(), "xfifo connect failed: %s",
                            fd.error().toString().c_str());
            child.inFd = fd.value();
        }
    }

    const sim::SimTime t0 = prewarm ? sim.now() : setupStart;
    co_await runNode(&run, 0, t0);

    obs::ChainRecord record;
    record.chain = plan.spec.name;
    record.traceId = ctx.trace;
    sim::SimTime finish = t0;
    for (std::size_t i = 0; i < n; ++i)
        finish = std::max(finish, eps[i].execEnd);
    record.endToEnd = finish - t0;
    record.edgeLatencies.reserve(n - 1);
    record.invocations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto &ep = eps[i];
        if (plan.spec.nodes[i].parent >= 0)
            record.edgeLatencies.push_back(ep.edgeLatency);
        obs::InvocationRecord inv;
        inv.function = plan.spec.nodes[i].fn;
        inv.traceId = ctx.trace;
        inv.pu = plan.placement[i];
        inv.coldStart = ep.acq.cold;
        inv.startup = ep.acq.startupTime;
        inv.communication = ep.edgeLatency;
        inv.execution = plan.defs[i]->cpuWork->execCost;
        record.invocations.push_back(std::move(inv));
    }

    // The clients must outlive their writers' closes.
    co_await run.writerCloses.wait();
    // Return instances to the keep-alive cache; drop comm plumbing.
    // Each owner's close is its FIFO's last, which reclaims it.
    for (std::size_t i = 0; i < n; ++i) {
        auto &ep = eps[i];
        if (ep.client && ep.selfFd >= 0)
            (void)co_await ep.client->xfifoClose(ep.selfFd);
        if (ep.localFifo)
            dep_.osOn(plan.placement[i]).removeFifo(ep.localName);
        co_await startup_.release(*plan.defs[i], ep.acq);
    }
    // The entry-edge process dies with the chain (no sim time).
    if (run.gatewayProc != nullptr)
        dep_.osOn(managerPu).exitProcess(*run.gatewayProc);
    spareEndpoints_.put(std::move(eps));
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
