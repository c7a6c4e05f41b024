#include "os/memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace molecule::os {

bool
AddressSpace::chargePhysical(std::int64_t delta)
{
    if (!hook_)
        return true;
    return hook_(delta);
}

MemRegionPtr
AddressSpace::mapPrivate(std::string_view label, std::uint64_t bytes)
{
    if (!chargePhysical(std::int64_t(bytes)))
        return nullptr;
    MemRegionPtr region = pool_->take();
    region->label_.assign(label);
    region->bytes_ = bytes;
    region->sharers_ = 1;
    mappings_.push_back(Mapping{region, 0});
    return region;
}

void
AddressSpace::mapShared(const MemRegionPtr &region)
{
    MOLECULE_ASSERT(region != nullptr, "mapping a null region");
    ++region->sharers_;
    mappings_.push_back(Mapping{region, 0});
}

void
AddressSpace::unmap(const MemRegionPtr &region)
{
    auto it = std::find_if(mappings_.begin(), mappings_.end(),
                           [&](const Mapping &m) {
                               return m.region == region;
                           });
    MOLECULE_ASSERT(it != mappings_.end(), "unmapping unmapped region");
    if (it->copied > 0)
        chargePhysical(-std::int64_t(it->copied));
    --region->sharers_;
    if (region->sharers_ == 0) {
        chargePhysical(-std::int64_t(region->bytes()));
        pool_->put(region);
    }
    mappings_.erase(it);
}

std::int64_t
AddressSpace::touchCow(const MemRegionPtr &region, std::uint64_t bytes)
{
    auto it = std::find_if(mappings_.begin(), mappings_.end(),
                           [&](const Mapping &m) {
                               return m.region == region;
                           });
    MOLECULE_ASSERT(it != mappings_.end(), "COW touch on unmapped region");
    const std::uint64_t room = region->bytes() - it->copied;
    const std::uint64_t copy = std::min(bytes, room);
    if (copy == 0)
        return 0;
    if (!chargePhysical(std::int64_t(copy)))
        return -1;
    it->copied += copy;
    return std::int64_t((copy + 4095) / 4096);
}

void
AddressSpace::forkInto(AddressSpace &child) const
{
    child.mappings_.reserve(child.mappings_.size() + mappings_.size() + 1);
    for (const auto &m : mappings_)
        child.mapShared(m.region);
}

std::uint64_t
AddressSpace::rss() const
{
    std::uint64_t total = 0;
    for (const auto &m : mappings_)
        total += m.region->bytes();
    return total;
}

double
AddressSpace::pss() const
{
    double total = 0;
    for (const auto &m : mappings_) {
        const double shared =
            double(m.region->bytes() - m.copied) /
            double(std::max(1, m.region->sharers()));
        total += double(m.copied) + shared;
    }
    return total;
}

std::uint64_t
AddressSpace::privateBytes() const
{
    std::uint64_t total = 0;
    for (const auto &m : mappings_) {
        total += m.copied;
        if (m.region->sharers() == 1)
            total += m.region->bytes() - m.copied;
    }
    return total;
}

void
AddressSpace::clear()
{
    while (!mappings_.empty())
        unmap(mappings_.back().region);
}

MemRegionPtr
AddressSpace::findRegion(std::string_view label) const
{
    for (const auto &m : mappings_)
        if (m.region->label() == label)
            return m.region;
    return nullptr;
}

} // namespace molecule::os
