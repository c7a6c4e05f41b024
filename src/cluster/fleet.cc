#include "cluster/fleet.hh"

namespace molecule::cluster {

/** Every fleet node carries BlueField-2 DPUs. */
constexpr hw::DpuGeneration kDpuGeneration = hw::DpuGeneration::Bf2;

Fleet::Fleet(sim::Simulation &sim, const FleetSpec &spec)
    : sim_(sim), spec_(spec)
{
    const int n = spec_.nodes > 0 ? spec_.nodes : 1;
    computers_.reserve(std::size_t(n));
    runtimes_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
        auto computer = hw::buildCpuDpuServer(sim_, spec_.dpusPerNode,
                                              kDpuGeneration);
        core::MoleculeOptions options = spec_.runtime;
        options.startup.warmCapacity = spec_.warmCapacity;
        runtimes_.push_back(std::make_unique<core::Molecule>(
            *computer, options));
        computers_.push_back(std::move(computer));
    }
}

void
Fleet::registerCpuFunction(const std::string &name,
                           const std::vector<hw::PuType> &kinds)
{
    for (auto &rt : runtimes_)
        rt->registerCpuFunction(name, kinds);
}

void
Fleet::start()
{
    for (auto &rt : runtimes_)
        rt->start();
}

std::map<std::pair<int, int>, int>
Fleet::coreTable() const
{
    std::map<std::pair<int, int>, int> cores;
    for (std::size_t i = 0; i < computers_.size(); ++i) {
        const hw::Computer &c = *computers_[i];
        for (int p = 0; p < c.puCount(); ++p)
            cores[{int(i), p}] = c.pu(p).desc().cores;
    }
    return cores;
}

std::map<std::pair<int, int>, hw::PuType>
Fleet::puTypeTable() const
{
    std::map<std::pair<int, int>, hw::PuType> types;
    for (std::size_t i = 0; i < computers_.size(); ++i) {
        const hw::Computer &c = *computers_[i];
        for (int p = 0; p < c.puCount(); ++p)
            types[{int(i), p}] = c.pu(p).desc().type;
    }
    return types;
}

int
Fleet::totalPus() const
{
    int total = 0;
    for (const auto &c : computers_)
        total += c->puCount();
    return total;
}

} // namespace molecule::cluster
