/**
 * @file
 * The three rules for keeping host records past their use, so steady
 * traffic allocates nothing. Which record comes back never reaches a
 * simulated result. DESIGN.md §4b lists which list follows which rule.
 */

#ifndef MOLECULE_SIM_SPARES_HH
#define MOLECULE_SIM_SPARES_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/ring.hh"

namespace molecule::sim {

/** Values only the list holds, reused last in, first out. */
template <typename T>
class Spares
{
  public:
    /** The value put last, or an empty T when there is none. */
    T
    take()
    {
        if (spares_.empty())
            return T();
        T value = std::move(spares_.back());
        spares_.pop_back();
        return value;
    }

    /** Keep @p value for reuse. */
    void put(T value) { spares_.push_back(std::move(value)); }

    /**
     * Insert a row into @p map through the node put last, or a new
     * one. @p init readies the row's value (the spare node's, or a
     * value-initialised one) and returns the row's key. The node is
     * keyed after @p init, so a key may view the value. A row whose
     * key is taken goes back on the list.
     * @return the row and whether it went in.
     */
    template <typename Map, typename Init>
    std::pair<typename Map::iterator, bool>
    insertInto(Map &map, Init &&init)
    {
        static_assert(std::is_same_v<T, typename Map::node_type>);
        T node = take();
        if (node.empty()) {
            typename Map::mapped_type value{};
            decltype(auto) key = init(value);
            return map.try_emplace(key, std::move(value));
        }
        node.key() = init(node.mapped());
        auto placed = map.insert(std::move(node));
        if (!placed.inserted)
            put(std::move(placed.node));
        return {placed.position, placed.inserted};
    }

    std::size_t size() const { return spares_.size(); }

  private:
    std::vector<T> spares_;
};

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

    /** The oldest record nobody else holds, else a new one. */
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
        return std::make_shared<T>();
    }

    /** Keep @p record for reuse. */
    void
    put(std::shared_ptr<T> record)
    {
        if (spares_.size() == kCapacity)
            (void)spares_.pop_front();
        spares_.push_back(std::move(record));
    }

    std::size_t size() const { return spares_.size(); }

  private:
    detail::Ring<std::shared_ptr<T>> spares_;
};

/** Retired records that something may still read after the instant
 * they were retired (a woken coroutine, an in-flight step). None is
 * ever reused. */
template <typename T>
class Graveyard
{
  public:
    void
    bury(std::unique_ptr<T> record)
    {
        dead_.push_back(std::move(record));
    }

    /** Free @p record, if it is buried here. */
    void
    release(const T &record)
    {
        const auto it =
            std::find_if(dead_.begin(), dead_.end(),
                         [&](const auto &d) { return d.get() == &record; });
        if (it != dead_.end())
            dead_.erase(it);
    }

    std::size_t size() const { return dead_.size(); }

  private:
    std::vector<std::unique_ptr<T>> dead_;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SPARES_HH
