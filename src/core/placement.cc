#include "core/placement.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"

namespace molecule::core {

namespace {

/** Candidate order of the price heuristic: cheapest profile first
 * (registration order breaks price ties), then ascending PU id. */
bool
priceBefore(const PuView &a, const PuView &b)
{
    if (a.price != b.price)
        return a.price < b.price;
    if (a.profileRank != b.profileRank)
        return a.profileRank < b.profileRank;
    return a.pu < b.pu;
}

} // namespace

void
PlacementView::priceOrder(std::span<const PuView> rows,
                          std::span<std::uint16_t> order)
{
    MOLECULE_ASSERT(rows.size() <= 0xffff && order.size() == rows.size(),
                    "price order of %zu rows into %zu slots",
                    rows.size(), order.size());
    // Insertion sort: stable and allocation-free; views are small.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::size_t j = i;
        for (; j > 0 && priceBefore(rows[i], rows[order[j - 1]]); --j)
            order[j] = order[j - 1];
        order[j] = std::uint16_t(i);
    }
}

PlacementView::PlacementView(std::vector<PuView> pus) : n_(pus.size())
{
    if (n_ > kInline) {
        heap_ = std::move(pus);
        heapOrder_.resize(n_);
    } else {
        std::uninitialized_copy(pus.begin(), pus.end(), inline_.rows);
    }
    priceOrder(this->pus(), order());
}

PlacementView::PlacementView(std::span<const PuView> rows,
                             std::span<const std::uint16_t> order)
    : n_(rows.size())
{
    if (n_ <= kInline) {
        std::uninitialized_copy(rows.begin(), rows.end(), inline_.rows);
        std::copy(order.begin(), order.end(), inlineOrder_.begin());
    } else {
        heap_.assign(rows.begin(), rows.end());
        heapOrder_.assign(order.begin(), order.end());
    }
}

int
PriceOrderedPolicy::place(const PlacementRequest &req,
                          const PlacementView &view)
{
    (void)req;
    for (std::size_t i = 0; i < view.size(); ++i)
        if (view.byPrice(i).eligible())
            return view.byPrice(i).pu;
    return -1;
}

int
LoadAwarePolicy::place(const PlacementRequest &req,
                       const PlacementView &view)
{
    (void)req;
    // Pass 1: cheapest kind with headroom. The order is price-grouped,
    // so scanning for the least-loaded PU within the current (price,
    // rank) group before moving on implements "spill to the
    // next-cheapest kind only when this one is saturated".
    const std::size_t n = view.size();
    std::size_t i = 0;
    while (i < n) {
        const double price = view.byPrice(i).price;
        const std::uint32_t rank = view.byPrice(i).profileRank;
        const PuView *best = nullptr;
        for (; i < n && view.byPrice(i).price == price &&
               view.byPrice(i).profileRank == rank;
             ++i) {
            const PuView *v = &view.byPrice(i);
            if (!v->eligible() ||
                v->loadPerCore() >= kSpillThreshold)
                continue;
            if (best == nullptr ||
                v->loadPerCore() < best->loadPerCore())
                best = v;
        }
        if (best != nullptr)
            return best->pu;
    }

    // Pass 2: every kind saturated — the globally least-loaded
    // eligible PU absorbs the overflow (lowest id ties, via the
    // price-ordered scan order and strict improvement).
    const PuView *best = nullptr;
    for (const PuView &v : view.pus()) {
        if (!v.eligible())
            continue;
        if (best == nullptr || v.loadPerCore() < best->loadPerCore() ||
            (v.loadPerCore() == best->loadPerCore() && v.pu < best->pu))
            best = &v;
    }
    return best != nullptr ? best->pu : -1;
}

int
LocalityAffinityPolicy::place(const PlacementRequest &req,
                              const PlacementView &view)
{
    const PuView *warm = nullptr;
    for (const PuView &v : view.pus()) {
        if (!v.eligible() || v.warmSandboxes == 0 ||
            v.loadPerCore() >= kLoadBarrier)
            continue;
        const bool better =
            warm == nullptr || v.warmSandboxes > warm->warmSandboxes ||
            (v.warmSandboxes == warm->warmSandboxes &&
             priceBefore(v, *warm));
        if (better)
            warm = &v;
    }
    if (warm != nullptr)
        return warm->pu;
    return fallback_.place(req, view);
}

std::unique_ptr<PlacementPolicy>
PlacementConfig::make() const
{
    switch (kind) {
    case Kind::PriceOrdered:
        return std::make_unique<PriceOrderedPolicy>();
    case Kind::LoadAware:
        return std::make_unique<LoadAwarePolicy>();
    case Kind::Locality:
        return std::make_unique<LocalityAffinityPolicy>();
    }
    return std::make_unique<PriceOrderedPolicy>();
}

const char *
toString(PlacementConfig::Kind kind)
{
    switch (kind) {
    case PlacementConfig::Kind::PriceOrdered:
        return "price-ordered";
    case PlacementConfig::Kind::LoadAware:
        return "load-aware";
    case PlacementConfig::Kind::Locality:
        return "locality";
    }
    return "?";
}

} // namespace molecule::core
