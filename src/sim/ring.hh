/**
 * @file
 * FIFO ring buffer shared by the mailboxes, the warm pools and the
 * record-reuse lists.
 */

#ifndef MOLECULE_SIM_RING_HH
#define MOLECULE_SIM_RING_HH

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace molecule::sim::detail {

/**
 * FIFO over one contiguous power-of-two ring. Empty until the first
 * push (no allocation before use) and keeps its capacity when
 * drained, so a queue that carries one message at a time allocates
 * once in its life.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count_ == 0; }

    std::size_t size() const { return count_; }

    void
    push_back(T v)
    {
        if (count_ == slots_.size())
            grow();
        slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(v);
        ++count_;
    }

    T
    pop_front()
    {
        T v = std::move(slots_[head_]);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --count_;
        return v;
    }

    /** Entry @p i, counting from the oldest. */
    T &
    operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    /** Remove entry @p i; the others keep their order. Moves the
     * shorter side of the ring by one slot. */
    void
    erase(std::size_t i)
    {
        MOLECULE_ASSERT(i < count_, "ring erase past the end");
        if (i < count_ / 2) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            head_ = (head_ + 1) & (slots_.size() - 1);
        } else {
            for (std::size_t j = i; j + 1 < count_; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --count_;
    }

    /** The live entries, oldest first, as at most two spans. */
    std::pair<std::span<const T>, std::span<const T>>
    spans() const
    {
        const std::size_t first =
            std::min(count_, slots_.size() - head_);
        return {std::span<const T>(slots_.data() + head_, first),
                std::span<const T>(slots_.data(), count_ - first)};
    }

    /** Drop every entry; the capacity stays. */
    void
    clear()
    {
        while (count_ > 0)
            (void)pop_front();
        head_ = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(4, 2 * slots_.size()));
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] =
                std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace molecule::sim::detail

#endif // MOLECULE_SIM_RING_HH
