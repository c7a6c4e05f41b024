/**
 * @file
 * A small open-addressing hash map for tables that every event
 * reads, such as the XPU-Shim's capability replicas.
 *
 * The values sit in one dense array: live rows first, then spare
 * rows. An index of power-of-two size maps a key's hash to its row by
 * linear probing. Erase is a backward shift, so the index never holds
 * tombstones. The erased row swaps places with the last live one and
 * becomes the first spare; the next insert takes it, buffers and all,
 * so reuse is last in, first out, as with sim::Spares. The dense array
 * holds at most the peak number of live rows.
 *
 * The table has no iterators. forEach() visits rows in an order that
 * depends on the erase history, so a caller that lets that order
 * reach a simulated result must sort first. Any insert or erase may
 * move other rows, so pointers from find() or tryEmplace() last only
 * until the next insert or erase.
 */

#ifndef MOLECULE_SIM_FLAT_MAP_HH
#define MOLECULE_SIM_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace molecule::sim {

/** Fibonacci hashing: one multiply spreads a dense id's low bits into
 * the top bits, which pick the slot. */
struct FibonacciHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return key * 0x9E3779B97F4A7C15ULL;
    }
};

/**
 * @tparam Hash a 64-bit hash whose top bits are well mixed:
 * FibonacciHash for integer ids, std::hash<std::string_view> (a
 * Murmur hash in libstdc++) for names.
 */
template <typename K, typename V, typename Hash = FibonacciHash>
class FlatMap
{
  public:
    std::size_t size() const { return live_; }

    V *
    find(const K &key)
    {
        const std::uint32_t row = rowOf(key);
        return row == kEmpty ? nullptr : &rows_[row].value;
    }

    const V *
    find(const K &key) const
    {
        const std::uint32_t row = rowOf(key);
        return row == kEmpty ? nullptr : &rows_[row].value;
    }

    /**
     * The value of @p key, inserted when absent. A new row takes the
     * spare erased last, whose value keeps what its scrub left, or a
     * value-initialised one; the caller readies it.
     * @return the value and whether the row is new.
     */
    std::pair<V *, bool>
    tryEmplace(const K &key)
    {
        const std::uint32_t tag = tagOf(key);
        if (std::uint32_t row = rowOf(key, tag); row != kEmpty)
            return {&rows_[row].value, false};
        if (2 * (live_ + 1) > slots_.size())
            grow();
        const auto row = std::uint32_t(live_);
        if (live_ == rows_.size())
            rows_.emplace_back();
        Row &r = rows_[live_++];
        r.key = key;
        r.tag = tag;
        place(tag, row);
        return {&r.value, true};
    }

    /**
     * Erase @p key's row. @p scrub gets the value first and drops
     * what a spare must not keep (shared records, say); the rest, such
     * as vector capacity, stays for the next insert.
     * @retval false no row has @p key.
     */
    template <typename Scrub>
    bool
    erase(const K &key, Scrub &&scrub)
    {
        const std::size_t at = slotOf(key, tagOf(key));
        if (at == kNoSlot)
            return false;
        const std::uint32_t row = slots_[at].row;
        scrub(rows_[row].value);
        unlink(at);
        const auto last = std::uint32_t(live_ - 1);
        if (row != last) {
            std::swap(rows_[row], rows_[last]);
            slots_[slotOfRow(rows_[row].tag, last)].row = row;
        }
        rows_[last].key = K();
        --live_;
        return true;
    }

    /** Drop every row, spares included. */
    void
    clear()
    {
        rows_.clear();
        live_ = 0;
        std::fill(slots_.begin(), slots_.end(), Slot{});
    }

    /** Call @p f(key, value) on every row, in no meaningful order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < live_; ++i)
            f(rows_[i].key, rows_[i].value);
    }

  private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t(0);
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    struct Row
    {
        K key{};
        /** Top 32 bits of the key's hash. */
        std::uint32_t tag = 0;
        V value{};
    };

    /** An index entry: the row's tag, so most probes never touch a
     * row, and the row; kEmpty marks a free slot. */
    struct Slot
    {
        std::uint32_t tag = 0;
        std::uint32_t row = kEmpty;
    };

    static std::uint32_t
    tagOf(const K &key)
    {
        return std::uint32_t(Hash{}(key) >> 32);
    }

    std::size_t mask() const { return slots_.size() - 1; }

    /** The slot a tag hashes to: the top bits of the hash. */
    std::size_t home(std::uint32_t tag) const { return tag >> tagShift_; }

    std::size_t
    slotOf(const K &key, std::uint32_t tag) const
    {
        if (live_ == 0)
            return kNoSlot;
        for (std::size_t i = home(tag);; i = (i + 1) & mask()) {
            const Slot &s = slots_[i];
            if (s.row == kEmpty)
                return kNoSlot;
            if (s.tag == tag && rows_[s.row].key == key)
                return i;
        }
    }

    std::uint32_t
    rowOf(const K &key, std::uint32_t tag) const
    {
        const std::size_t at = slotOf(key, tag);
        return at == kNoSlot ? kEmpty : slots_[at].row;
    }

    std::uint32_t
    rowOf(const K &key) const
    {
        return rowOf(key, tagOf(key));
    }

    std::size_t
    slotOfRow(std::uint32_t tag, std::uint32_t row) const
    {
        std::size_t i = home(tag);
        while (slots_[i].row != row)
            i = (i + 1) & mask();
        return i;
    }

    void
    place(std::uint32_t tag, std::uint32_t row)
    {
        std::size_t i = home(tag);
        while (slots_[i].row != kEmpty)
            i = (i + 1) & mask();
        slots_[i] = Slot{tag, row};
    }

    /** Empty slot @p hole, pulling back each later entry of its run
     * that may sit there (its home is not between hole and it). */
    void
    unlink(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask(); slots_[j].row != kEmpty;
             j = (j + 1) & mask()) {
            const std::size_t fromHome = (j - home(slots_[j].tag)) & mask();
            if (fromHome >= ((j - hole) & mask())) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
    }

    /** Double the index (8 slots at first) and re-place every row by
     * its tag; keys are not hashed again. */
    void
    grow()
    {
        const std::size_t size = std::max<std::size_t>(8, 2 * slots_.size());
        slots_.assign(size, Slot{});
        tagShift_ = 32 - unsigned(std::countr_zero(size));
        for (std::size_t i = 0; i < live_; ++i)
            place(rows_[i].tag, std::uint32_t(i));
    }

    std::vector<Slot> slots_;
    /** Live rows, then spares; the spare erased last comes first. */
    std::vector<Row> rows_;
    std::size_t live_ = 0;
    unsigned tagShift_ = 32;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_FLAT_MAP_HH
