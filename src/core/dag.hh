/**
 * @file
 * Function-DAG execution (§4.3).
 *
 * Molecule's "direct connect": every function instance owns a
 * self-FIFO named by a globally unique UUID; the runtime injects the
 * caller/callee UUIDs per request so instances write each other's
 * FIFOs directly — a LocalFifo on the same PU, an XPU-FIFO (nIPC)
 * across PUs. The baseline (Molecule-homo, like OpenWhisk's runtimes)
 * runs an Express/Flask HTTP server in each instance and ships
 * messages over localhost HTTP.
 *
 * The engine measures per-edge latency (parent execution end to child
 * execution start, the Fig 12 quantity) and end-to-end chain latency
 * (Fig 14-e), and drives FPGA chains with and without the DRAM
 * data-retention zero-copy optimization (Fig 13).
 */

#ifndef MOLECULE_CORE_DAG_HH
#define MOLECULE_CORE_DAG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/startup.hh"
#include "obs/records.hh"
#include "sim/spares.hh"

namespace molecule::core {

/** One DAG node: function + parent (index into the node list). */
struct ChainNode
{
    std::string fn;
    int parent = -1; // -1: root (fed by the gateway)

    bool operator==(const ChainNode &) const = default;
};

/** A function chain/DAG in topological order. */
struct ChainSpec
{
    std::string name;
    std::vector<ChainNode> nodes;

    /** Build a linear chain fn0 -> fn1 -> ... */
    static ChainSpec linear(const std::string &name,
                            const std::vector<std::string> &fns);

    std::size_t
    edgeCount() const
    {
        std::size_t n = 0;
        for (const auto &node : nodes)
            n += node.parent >= 0 ? 1 : 0;
        return n;
    }

    bool operator==(const ChainSpec &) const = default;
};

/**
 * Everything a chain's wiring needs that depends only on its shape,
 * placement and manager PU, computed once per such triple and reused
 * by every run (DESIGN.md §4e).
 */
struct ChainPlan
{
    ChainSpec spec;
    /** PU per node. */
    std::vector<int> placement;
    int managerPu = 0;
    /** Function of each node. */
    std::vector<const FunctionDef *> defs;
    /** Children of each node, in node order. */
    std::vector<std::vector<int>> children;
    /** PU the incoming edge of each node starts on (the manager's for
     * the root, which the gateway feeds). */
    std::vector<int> fromPu;
    /** Nodes whose incoming edge crosses PUs (an XPU-FIFO the writer
     * connects to), in node order. The rest stay on one PU and use a
     * local FIFO. */
    std::vector<int> crossPuEdges;
    /** "self/<chain>/": a run appends one uuid per node. */
    std::string fifoPrefix;
    /** Name of the gateway-side process feeding the entry edge. */
    std::string gatewayProcess;

    bool crossesPu(std::size_t node) const
    {
        return fromPu[node] != placement[node];
    }
};

/** Inter-function communication flavor. */
enum class DagCommMode {
    /** Express/Flask HTTP through the local network stack. */
    BaselineHttp,
    /** Direct-connect FIFOs; nIPC across PUs. */
    MoleculeIpc,
};

/**
 * Chain executor over a deployment.
 */
class DagEngine
{
  public:
    DagEngine(Deployment &dep, StartupManager &startup,
              const FunctionRegistry &registry);

    ~DagEngine();

    /**
     * The plan of @p spec with @p placement (PU per node) and the
     * runtime on @p managerPu: built on first use, then cached. Plans
     * live as long as the engine.
     */
    const ChainPlan &plan(const ChainSpec &spec,
                          const std::vector<int> &placement,
                          int managerPu = 0);

    /**
     * Run @p plan once.
     *
     * @param mode communication flavor
     * @param prewarm acquire all instances before timing starts
     *        (Fig 12 / Fig 14-e pre-boot instances)
     */
    sim::Task<obs::ChainRecord> run(const ChainPlan &plan,
                                    DagCommMode mode, bool prewarm,
                                    obs::SpanContext ctx = {});

    /**
     * Run a linear chain of FPGA functions on one card (Fig 13).
     * With @p shmOptimization, intermediate results stay in the
     * FPGA-attached DRAM (data retention); otherwise every hop copies
     * through host memory (two DMA crossings).
     */
    sim::Task<obs::ChainRecord> runFpgaChain(
        const std::vector<std::string> &fns, int fpgaIndex,
        bool shmOptimization, std::uint64_t messageBytes,
        obs::SpanContext ctx = {});

    /** Per-node communication plumbing (defined in dag.cc). */
    struct Endpoint;

  private:
    /** A pooled endpoint array with its first @p n entries reset. */
    std::vector<Endpoint> takeEndpoints(std::size_t n);

    Deployment &dep_;
    StartupManager &startup_;
    const FunctionRegistry &registry_;
    /** Keyed by a hash of the plan's inputs; equal hashes are told
     * apart by comparing the inputs. */
    std::unordered_multimap<std::uint64_t, std::unique_ptr<ChainPlan>>
        plans_;
    std::uint64_t nextUuid_ = 0;
    /** Endpoint arrays of finished runs: names and fd tables keep
     * their buffers. */
    sim::Spares<std::vector<Endpoint>> spareEndpoints_;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_DAG_HH
