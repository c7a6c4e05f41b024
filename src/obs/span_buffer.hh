/**
 * @file
 * Chunked storage for finished spans.
 *
 * Tracer::push runs once per finished span — on the hot path of every
 * traced invocation — so the span store must not touch the heap at
 * steady state. SpanBuffer is a chunked deque that owns its chunks:
 * push is a store into the tail chunk, the ring policy (drop-oldest)
 * retires whole chunks to an internal free list, and clear() rewinds
 * without releasing anything.
 *
 * Lifetime: records obtained from a SpanBuffer are views into its
 * chunks. dropOldest() and clear() recycle those chunks, so a view
 * must not be used across either call, nor outlive the buffer.
 * Exports that survive the run copy out first — snapshot() is the
 * sanctioned way.
 */

#ifndef MOLECULE_OBS_SPAN_BUFFER_HH
#define MOLECULE_OBS_SPAN_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace molecule::obs {

enum class Layer : std::uint8_t;

/**
 * One finished span. `name` must point to a string literal (static
 * storage); dynamic annotations go into the fixed `detail` buffer so
 * recording never allocates.
 */
struct SpanRecord
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    /** Parent span id; 0 = trace root. */
    std::uint64_t parentId = 0;
    const char *name = "?";
    Layer layer = Layer(0);
    /** Sim-time nanoseconds. */
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** PU the work happened on (-1: not PU-bound). */
    std::int32_t pu = -1;
    /** Free-form numeric payload (bytes moved, units, ...). */
    std::int64_t arg = 0;
    /** Truncating copy of a dynamic annotation (function name, ...). */
    char detail[24] = {};
};

/**
 * Chunked record deque. Indexable, iterable oldest
 * first; dropOldest() implements the Tracer's ring bound by retiring
 * leading chunks to a free list (no element moves, unlike the old
 * vector-erase compaction). Not thread-safe, like everything else
 * owned by one Simulation.
 */
class SpanBuffer
{
  public:
    /** Records per chunk; 128 × 88 B ≈ 11 KiB chunks. */
    static constexpr std::size_t kChunkShift = 7;
    static constexpr std::size_t kChunkSize = std::size_t(1)
                                              << kChunkShift;

    SpanBuffer() = default;

    SpanBuffer(const SpanBuffer &) = delete;
    SpanBuffer &operator=(const SpanBuffer &) = delete;

    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    const SpanRecord &
    operator[](std::size_t i) const
    {
        const std::size_t p = head_ + i;
        return chunks_[p >> kChunkShift][p & (kChunkSize - 1)];
    }

    const SpanRecord &front() const { return (*this)[0]; }

    const SpanRecord &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const SpanRecord &rec)
    {
        const std::size_t p = head_ + size_;
        if (p == cap_)
            grow();
        chunks_[p >> kChunkShift][p & (kChunkSize - 1)] = rec;
        ++size_;
    }

    /**
     * Drop the @p n oldest records (all of them when @p n >= size).
     * Fully vacated leading chunks go back to the free list.
     */
    void
    dropOldest(std::size_t n)
    {
        if (n > size_)
            n = size_;
        head_ += n;
        size_ -= n;
        while (head_ >= kChunkSize) {
            freeChunks_.push_back(chunks_.front());
            chunks_.erase(chunks_.begin());
            cap_ -= kChunkSize;
            head_ -= kChunkSize;
        }
        if (size_ == 0)
            head_ = 0;
    }

    /** Rewind to empty; chunks are retained for reuse. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Copy-out for anything that must outlive the simulation. */
    std::vector<SpanRecord>
    snapshot() const
    {
        return std::vector<SpanRecord>(begin(), end());
    }

    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = SpanRecord;
        using difference_type = std::ptrdiff_t;
        using pointer = const SpanRecord *;
        using reference = const SpanRecord &;

        const_iterator() = default;

        const_iterator(const SpanBuffer *buf, std::size_t i)
            : buf_(buf), i_(i)
        {}

        reference operator*() const { return (*buf_)[i_]; }

        pointer operator->() const { return &(*buf_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_ && buf_ == o.buf_;
        }

        bool
        operator!=(const const_iterator &o) const
        {
            return !(*this == o);
        }

      private:
        const SpanBuffer *buf_ = nullptr;
        std::size_t i_ = 0;
    };

    const_iterator begin() const { return const_iterator(this, 0); }

    const_iterator end() const { return const_iterator(this, size_); }

  private:
    void
    grow()
    {
        SpanRecord *chunk;
        if (!freeChunks_.empty()) {
            chunk = freeChunks_.back();
            freeChunks_.pop_back();
        } else {
            owned_.push_back(std::make_unique<SpanRecord[]>(kChunkSize));
            chunk = owned_.back().get();
        }
        chunks_.push_back(chunk);
        cap_ += kChunkSize;
    }

    /** Every chunk ever allocated; chunks_ and freeChunks_ point
     * into these. */
    std::vector<std::unique_ptr<SpanRecord[]>> owned_;
    /** Live chunks; element p of the logical deque lives at
     * chunks_[p >> shift][p & mask] with p = head_ + index. */
    std::vector<SpanRecord *> chunks_;
    std::vector<SpanRecord *> freeChunks_;
    std::size_t head_ = 0; ///< consumed records in chunks_[0]
    std::size_t size_ = 0;
    std::size_t cap_ = 0; ///< head_ + size_ limit = chunks_ capacity
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_SPAN_BUFFER_HH
