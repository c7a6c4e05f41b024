/**
 * @file
 * Hierarchical calendar wheel parking far-out events for the DES
 * kernel.
 *
 * Eight levels of 64 buckets; a level-l bucket spans one *window* of
 * 2^(16+6l) ns, so level 0 covers 65.5 us windows over a 4.19 ms span,
 * level 1 4.19 ms windows over 268 ms, and so on up to level 7, whose
 * 2^58 ns windows span all of SimTime: the wheel has no horizon.
 * Events earlier than the drained frontier are refused (as are those in
 * SimTime's last 65.5 us, whose window end would overflow), and the
 * caller keeps them in its sorted near array.
 *
 * The wheel never decides firing order. The EventQueue empties whole
 * buckets: a level-0 bucket is drained into a sorted ready-run when
 * the simulation reaches its window, and a coarser bucket is
 * re-inserted one level finer (classic cascade). Insert and bucket
 * location are O(1); per-level occupancy bitmaps make locating the
 * earliest occupied window two ctz instructions per level, and a mask
 * of occupied levels skips the empty ones.
 *
 * Node storage is block chains the wheel owns, allocated in chunks and
 * recycled through a free list, so steady-state operation performs no
 * heap allocation.
 */

#ifndef MOLECULE_SIM_TIMER_WHEEL_HH
#define MOLECULE_SIM_TIMER_WHEEL_HH

#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace molecule::sim {

/** Priority node: 24 trivially copyable bytes, one queued event —
 * the coroutine to resume, ordered by (when, seq). */
struct EventNode
{
    std::int64_t when;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
};

class TimerWheel
{
  public:
    static constexpr int kLevels = 8;
    static constexpr int kBucketShift = 6;
    static constexpr std::size_t kBuckets = std::size_t(1)
                                            << kBucketShift;
    /** Finest window: 2^16 ns = 65.5 us per level-0 bucket. */
    static constexpr int kWindowShift = 16;
    /** Sentinel "no occupied window" timestamp. */
    static constexpr std::int64_t kNoWindow =
        std::int64_t(0x7fffffffffffffff);
    /** Start of SimTime's last finest window: refused from here on, so
     * the end of every window the caller drains is representable. */
    static constexpr std::int64_t kLastWindow =
        kNoWindow >> kWindowShift << kWindowShift;

    /** Bit shift from timestamp to level-l window index. */
    static constexpr int
    shift(int level)
    {
        return kWindowShift + kBucketShift * level;
    }

    /** Earliest occupied window, as located by locate(). */
    struct Earliest
    {
        int level;
        std::int64_t idx; ///< window index (timestamp >> shift(level))
        std::int64_t ws;  ///< window start timestamp (idx << shift)
    };

    TimerWheel() = default;

    TimerWheel(const TimerWheel &) = delete;
    TimerWheel &operator=(const TimerWheel &) = delete;

    bool empty() const { return entries_ == 0; }

    /** Parked nodes (diagnostics). */
    std::size_t entries() const { return entries_; }

    /** Drained frontier: inserts below it are refused. */
    std::int64_t base() const { return base_; }

    /**
     * Lower bound on the start of the earliest occupied window —
     * O(1), maintained conservatively. A head event strictly earlier
     * than hint() can fire without scanning any bitmap. Meaningful
     * only while !empty().
     */
    std::int64_t hint() const { return hint_; }

    /**
     * Park @p n.
     * @retval false @p n.when is before the drained frontier or at
     *               kLastWindow or later; the caller keeps it.
     */
    bool
    insert(const EventNode &n)
    {
        if (n.when < base_ || n.when >= kLastWindow)
            return false;
        // base_ stays aligned to the finest window (advanceBase), so
        // the level-0 test reduces to a span check on the delta. The
        // top level's 64 windows span every non-negative int64, so
        // the search always ends.
        int level = 0;
        if (std::uint64_t(n.when - base_) >=
            (std::uint64_t(1) << (kWindowShift + kBucketShift))) {
            level = 1;
            while ((n.when >> shift(level)) - (base_ >> shift(level)) >=
                   std::int64_t(kBuckets))
                ++level;
        }
        const std::int64_t idx = n.when >> shift(level);
        const std::int64_t ws = idx << shift(level);
        if (ws < hint_)
            hint_ = ws;
        bitmap_[level] |= std::uint64_t(1) << (idx & (kBuckets - 1));
        levels_ |= 1u << level;
        append(buckets_[level][idx & (kBuckets - 1)], n);
        ++entries_;
        return true;
    }

    /**
     * Locate the earliest occupied window exactly (ties prefer the
     * coarsest level, whose bucket must cascade before the finer one
     * with the same start can drain). Refreshes hint(). Requires
     * !empty().
     */
    Earliest
    locate()
    {
        Earliest best{-1, 0, kNoWindow};
        // Coarsest occupied level first, so a tie keeps the coarser.
        for (std::uint32_t m = levels_; m != 0;) {
            const int l = std::bit_width(m) - 1;
            m &= ~(1u << l);
            const std::uint64_t bits = bitmap_[l];
            const int s = shift(l);
            const std::int64_t b = base_ >> s;
            const int rot = int(b & (kBuckets - 1));
            // Rotation invariant: occupied indexes lie in
            // [b, b + 64), so the earliest is the first bit at or
            // after the base's position, else the first wrapped bit.
            const std::uint64_t hi = bits & (~std::uint64_t(0) << rot);
            const std::int64_t idx =
                hi != 0 ? (b - rot) + std::countr_zero(hi)
                        : (b - rot) + std::int64_t(kBuckets) +
                              std::countr_zero(bits);
            const std::int64_t ws = idx << s;
            if (ws < best.ws)
                best = Earliest{l, idx, ws};
        }
        hint_ = best.ws;
        return best;
    }

    /**
     * Empty the bucket owning window @p at, appending its nodes to
     * @p out in insertion (sequence) order; blocks return to the free
     * list. The caller sorts/filters and advances the frontier.
     * @return nodes appended.
     */
    std::size_t
    drainBucket(const Earliest &at, std::vector<EventNode> &out)
    {
        Bucket &b = buckets_[at.level][at.idx & (kBuckets - 1)];
        std::size_t n = 0;
        Block *blk = b.head;
        while (blk != nullptr) {
            for (std::uint32_t i = 0; i < blk->count; ++i)
                out.push_back(blk->nodes[i]);
            n += blk->count;
            Block *next = blk->next;
            recycle(blk);
            blk = next;
        }
        b.head = b.tail = nullptr;
        bitmap_[at.level] &=
            ~(std::uint64_t(1) << (at.idx & (kBuckets - 1)));
        if (bitmap_[at.level] == 0)
            levels_ &= ~(1u << at.level);
        entries_ -= n;
        if (entries_ == 0)
            hint_ = kNoWindow;
        return n;
    }

    /**
     * Advance the drained frontier. @p t must be aligned to the
     * finest window (callers pass window starts/ends, which are).
     * Inserts below the frontier are refused from now on.
     */
    void
    advanceBase(std::int64_t t)
    {
        if (t > base_)
            base_ = t;
    }

    /** Caller-certified lower bound on every remaining window. */
    void
    raiseHint(std::int64_t ws)
    {
        if (hint_ < ws)
            hint_ = ws;
    }

  private:
    /** Chain link of parked nodes; 256-byte blocks. */
    struct Block
    {
        static constexpr std::uint32_t kCap = 9;
        EventNode nodes[kCap];
        Block *next = nullptr;
        std::uint32_t count = 0;
    };

    struct Bucket
    {
        Block *head = nullptr;
        Block *tail = nullptr;
    };

    Block *
    takeBlock()
    {
        if (freeBlocks_ != nullptr) {
            Block *b = freeBlocks_;
            freeBlocks_ = b->next;
            b->next = nullptr;
            b->count = 0;
            return b;
        }
        // Blocks come kBlocksPerChunk to an allocation: one malloc per
        // block scatters them among coroutine frames and grows the
        // heap.
        chunks_.push_back(std::make_unique<Block[]>(kBlocksPerChunk));
        Block *chunk = chunks_.back().get();
        for (std::size_t i = kBlocksPerChunk; i-- > 1;)
            recycle(&chunk[i]);
        return &chunk[0];
    }

    void
    recycle(Block *blk)
    {
        blk->count = 0;
        blk->next = freeBlocks_;
        freeBlocks_ = blk;
    }

    void
    append(Bucket &b, const EventNode &n)
    {
        Block *t = b.tail;
        if (t == nullptr || t->count == Block::kCap) {
            Block *blk = takeBlock();
            if (t != nullptr)
                t->next = blk;
            else
                b.head = blk;
            b.tail = blk;
            t = blk;
        }
        t->nodes[t->count++] = n;
    }

    static constexpr std::size_t kBlocksPerChunk = 64;

    /** Every block ever allocated, kBlocksPerChunk to a chunk; each
     * block is parked in a bucket or on the free list. */
    std::vector<std::unique_ptr<Block[]>> chunks_;
    Bucket buckets_[kLevels][kBuckets]{};
    std::uint64_t bitmap_[kLevels]{};
    /** Bit l set while bitmap_[l] is nonzero. */
    std::uint32_t levels_ = 0;
    Block *freeBlocks_ = nullptr;
    /** Aligned to the finest window; monotone. */
    std::int64_t base_ = 0;
    std::int64_t hint_ = kNoWindow;
    std::size_t entries_ = 0;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_TIMER_WHEEL_HH
