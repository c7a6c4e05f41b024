#include "core/scheduler.hh"

#include <algorithm>

#include "core/startup.hh"

namespace molecule::core {

std::uint64_t
Scheduler::admissibleBytes(int pu) const
{
    return dep_.computer().pu(pu).memoryFree();
}

const Scheduler::FnRows &
Scheduler::rowsOf(const FunctionDef &fn) const
{
    MOLECULE_ASSERT(fn.id != kNoFn, "'%s' unregistered", fn.name.c_str());
    if (fn.id >= rows_.size())
        rows_.resize(std::size_t(fn.id) + 1);
    FnRows &cached = rows_[fn.id];
    const std::uint32_t revision = registry_.revision(fn.id);
    if (cached.revision == revision)
        return cached;
    cached.revision = revision;
    std::uint64_t h = 14695981039346656037ULL;
    for (char c : fn.name)
        h = (h ^ std::uint64_t(std::uint8_t(c))) * 1099511628211ULL;
    cached.nameHash = h;
    const std::uint64_t need =
        fn.cpuWork ? fn.cpuWork->image.mem.privateBytes +
                         fn.cpuWork->image.mem.runtimeShared / 8
                   : 0;
    // One view row per PU an allowed profile covers; the first profile
    // of a kind (registration order) prices that kind's rows.
    std::vector<PuView> &pus = cached.rows;
    pus.clear();
    for (std::uint32_t rank = 0; rank < fn.profiles.size(); ++rank) {
        const Profile &profile = fn.profiles[rank];
        for (int pu : dep_.pusOfType(profile.kind)) {
            const bool seen =
                std::any_of(pus.begin(), pus.end(),
                            [pu](const PuView &v) { return v.pu == pu; });
            if (seen)
                continue;
            PuView v;
            v.pu = pu;
            v.kind = profile.kind;
            v.price = profile.pricePer100ms;
            v.profileRank = rank;
            v.cores = dep_.computer().pu(pu).desc().cores;
            v.needBytes = need;
            pus.push_back(v);
        }
    }
    std::sort(pus.begin(), pus.end(),
              [](const PuView &a, const PuView &b) {
                  return a.pu < b.pu;
              });
    cached.priceOrder.resize(pus.size());
    PlacementView::priceOrder(pus, cached.priceOrder);
    return cached;
}

PlacementView
Scheduler::view(const FunctionDef &fn,
                std::span<const int> exclude) const
{
    const sim::SimTime now = dep_.simulation().now();
    const fault::FaultState *faults = dep_.faults();
    const FnRows &cached = rowsOf(fn);
    PlacementView view(cached.rows, cached.priceOrder);
    for (PuView &v : view.rows()) {
        const int pu = v.pu;
        v.outstanding = outstanding(pu);
        v.warmSandboxes =
            startup_ != nullptr ? startup_->warmCount(fn.id, pu) : 0;
        v.freeBytes = admissibleBytes(pu);
        v.down = dep_.puDown(pu);
        v.excluded = std::find(exclude.begin(), exclude.end(), pu) !=
                     exclude.end();
        if (faults != nullptr) {
            v.capabilityEpoch = faults->puEpoch(pu);
            const fault::LinkFault *lf = faults->linkFault(0, pu);
            v.linkDegraded =
                lf != nullptr &&
                (lf->downUntil > now || lf->degradedUntil > now);
        }
    }
    return view;
}

int
Scheduler::place(const FunctionDef &fn, std::span<const int> exclude)
{
    decisions_.fetchAdd(1);
    PlacementRequest req;
    req.fn = &fn;
    req.exclude = exclude;
    const PlacementView v = view(fn, exclude);
    const int pick = policy_->place(req, v);
    // Fold (function, pick) into the per-policy placement golden
    // (view() just validated the cached rows).
    placeFp_.mix(rows_[fn.id].nameHash);
    placeFp_.mix(std::uint64_t(std::int64_t(pick)));
    return pick;
}

Expected<int>
Scheduler::admit(const FunctionDef &fn, int requestedPu,
                 std::span<const int> exclude)
{
    if (requestedPu >= 0 && std::find(exclude.begin(), exclude.end(),
                                      requestedPu) == exclude.end()) {
        if (dep_.puDown(requestedPu))
            return Error(Errc::PuCrashed,
                         "requested PU is down", requestedPu);
        return Expected<int>(requestedPu);
    }
    const int pick = place(fn, exclude);
    if (pick < 0)
        return Error(Errc::NoCapacity,
                     "no PU can admit '" + fn.name + "'");
    return Expected<int>(pick);
}

std::vector<int>
Scheduler::placeChain(const ChainSpec &spec)
{
    decisions_.fetchAdd(1);
    // Chain affinity: find one PU whose kind every function allows.
    for (int pu : dep_.generalPus()) {
        const auto kind = dep_.computer().pu(pu).type();
        bool allOk = true;
        for (const auto &node : spec.nodes) {
            const FunctionDef &def = registry_.find(node.fn);
            if (!def.allows(kind)) {
                allOk = false;
                break;
            }
        }
        if (allOk)
            return std::vector<int>(spec.nodes.size(), pu);
    }
    // Fall back to per-node placement.
    std::vector<int> placement;
    placement.reserve(spec.nodes.size());
    for (const auto &node : spec.nodes)
        placement.push_back(place(registry_.find(node.fn)));
    return placement;
}

void
Scheduler::installPlacement(std::unique_ptr<PlacementPolicy> policy)
{
    policy_ = policy != nullptr
                  ? std::move(policy)
                  : std::make_unique<PriceOrderedPolicy>();
}

void
Scheduler::noteDispatch(int pu)
{
    if (pu < 0)
        return;
    if (std::size_t(pu) >= outstanding_.size())
        outstanding_.resize(std::size_t(pu) + 1, 0);
    ++outstanding_[std::size_t(pu)];
    policy_->onDispatch(pu);
}

void
Scheduler::noteComplete(int pu)
{
    if (pu < 0 || std::size_t(pu) >= outstanding_.size())
        return;
    if (outstanding_[std::size_t(pu)] > 0)
        --outstanding_[std::size_t(pu)];
    policy_->onComplete(pu);
}

int
Scheduler::outstanding(int pu) const
{
    return pu >= 0 && std::size_t(pu) < outstanding_.size()
               ? outstanding_[std::size_t(pu)]
               : 0;
}

} // namespace molecule::core
