/**
 * @file
 * Reuse of shared records once their last outside holder lets go.
 */

#ifndef MOLECULE_SIM_SPARES_HH
#define MOLECULE_SIM_SPARES_HH

#include <cstddef>
#include <memory>

#include "sim/ring.hh"

namespace molecule::sim {

/**
 * Retired `shared_ptr` records kept for reuse. A record is handed out
 * again only when the list holds its last reference (`use_count()`
 * is 1), so a record still reached through another holder is never
 * rewritten under it.
 *
 * Scan rule: take() reuses the oldest free record and skips held ones;
 * put() keeps at most kCapacity records and drops the oldest to make
 * room. A record whose other holders never let go therefore costs a
 * skip per take() until kCapacity later retirements push it out, and
 * the list stays bounded.
 */
template <typename T>
class SpareRecords
{
  public:
    static constexpr std::size_t kCapacity = 32;

    /** The oldest record nobody else holds, or nullptr. */
    std::shared_ptr<T>
    take()
    {
        for (std::size_t i = 0; i < spares_.size(); ++i) {
            if (spares_[i].use_count() != 1)
                continue;
            std::shared_ptr<T> record = std::move(spares_[i]);
            spares_.erase(i);
            return record;
        }
        return nullptr;
    }

    /** Keep @p record for reuse. */
    void
    put(std::shared_ptr<T> record)
    {
        if (spares_.size() == kCapacity)
            (void)spares_.pop_front();
        spares_.push_back(std::move(record));
    }

    /** Drop every kept record (their other holders keep theirs). */
    void clear() { spares_.clear(); }

    std::size_t size() const { return spares_.size(); }

  private:
    detail::Ring<std::shared_ptr<T>> spares_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SPARES_HH
