/**
 * @file
 * Fleet: N heterogeneous computers as one simulated cluster.
 *
 * Each node is a full hw::Computer plus its core::Molecule runtime —
 * the same stack every single-machine bench drives — sharing one
 * Simulation so cluster-level scheduling decisions and per-node
 * progress interleave on a single deterministic virtual clock.
 * Function registration fans out to every node (a serverless cluster
 * deploys the catalog everywhere; placement is the gateway's job).
 *
 * The fleet is homogeneous-by-spec but heterogeneous-by-node: every
 * node carries a host CPU plus `dpusPerNode` DPUs, so per-node
 * placement still exercises the paper's CPU/DPU profile selection
 * while the cluster layer balances across machines.
 */

#ifndef MOLECULE_CLUSTER_FLEET_HH
#define MOLECULE_CLUSTER_FLEET_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/molecule.hh"
#include "hw/computer.hh"

namespace molecule::cluster {

/** Shape of the fleet (one spec builds every node). */
struct FleetSpec
{
    /** Number of worker machines. */
    int nodes = 2;
    /** BlueField-2 DPUs per node (0 = CPU-only nodes). */
    int dpusPerNode = 2;
    /** Warm instances kept per (function, PU) on every node. */
    std::size_t warmCapacity = 256;
    /** Runtime options template applied to every node; startup
     * warm capacity is overridden by `warmCapacity`. */
    core::MoleculeOptions runtime;
};

/**
 * The worker tier: owns computers and runtimes, index-addressed.
 */
class Fleet
{
  public:
    Fleet(sim::Simulation &sim, const FleetSpec &spec);

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    int size() const { return int(runtimes_.size()); }

    const FleetSpec &spec() const { return spec_; }

    sim::Simulation &simulation() { return sim_; }

    core::Molecule &node(int i) { return *runtimes_.at(std::size_t(i)); }

    hw::Computer &computer(int i)
    {
        return *computers_.at(std::size_t(i));
    }

    /** Register a catalog CPU function on every node. */
    void registerCpuFunction(const std::string &name,
                             const std::vector<hw::PuType> &kinds);

    /** Boot every node (runs the simulation to completion). */
    void start();

    /** (node, pu) -> core count, for utilization normalization. */
    std::map<std::pair<int, int>, int> coreTable() const;

    /** (node, pu) -> PU kind, for the cost model's rate lookup. */
    std::map<std::pair<int, int>, hw::PuType> puTypeTable() const;

    /** Total PUs across the fleet. */
    int totalPus() const;

  private:
    sim::Simulation &sim_;
    FleetSpec spec_;
    std::vector<std::unique_ptr<hw::Computer>> computers_;
    std::vector<std::unique_ptr<core::Molecule>> runtimes_;
};

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_FLEET_HH
