/**
 * @file
 * Small-buffer-optimized type-erased void() callable.
 *
 * std::function<void()> pays for type erasure with a potential heap
 * allocation and a relatively fat move; InlineCallback stores any
 * callable up to kInlineBytes (and any coroutine handle) in place, so
 * holding and firing a small callable performs zero allocations.
 *
 * The event queue does not use it: a queued event is a coroutine
 * handle, and Simulation::schedule keeps its callable in a coroutine
 * frame. It is for sim-layer code that must store a callable where the
 * sim-purity lint rejects std::function.
 *
 * Move-only; the destructor releases whatever the callable captured.
 */

#ifndef MOLECULE_SIM_CALLBACK_HH
#define MOLECULE_SIM_CALLBACK_HH

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace molecule::sim {

/**
 * Type-erased void() callable with inline storage.
 *
 * Three representations, chosen at construction:
 *  - a bare std::coroutine_handle<> (the fast path: one pointer,
 *    trivial relocation, no destructor);
 *  - any callable whose object fits kInlineBytes and is nothrow
 *    move-constructible, constructed in place;
 *  - a heap-allocated callable otherwise (rare; capture-heavy lambdas
 *    outside the hot path).
 */
class InlineCallback
{
  public:
    /** Inline storage size: six pointers of capture. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineCallback() = default;

    /** Fast path: hold a coroutine resumption (no allocation). */
    InlineCallback(std::coroutine_handle<> h) noexcept : ops_(&kCoroOps)
    {
        ::new (static_cast<void *>(buf_)) void *(h.address());
    }

    /** Erase an arbitrary callable; inline when it fits, else heap. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  !std::is_same_v<std::decay_t<F>,
                                  std::coroutine_handle<>> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineCallback(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Replace the held callable, constructing the new one directly in
     * the inline buffer instead of paying a construct-then-relocate
     * round trip.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  !std::is_same_v<std::decay_t<F>,
                                  std::coroutine_handle<>> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    void
    emplace(F &&fn)
    {
        reset();
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineCallback(InlineCallback &&other) noexcept
        : ops_(std::exchange(other.ops_, nullptr))
    {
        if (ops_)
            relocateFrom(other.buf_);
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = std::exchange(other.ops_, nullptr);
            if (ops_)
                relocateFrom(other.buf_);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the callable. Must not be empty. */
    void
    operator()()
    {
        MOLECULE_ASSERT(ops_, "invoking an empty InlineCallback");
        ops_->invoke(buf_);
    }

    /** True when the callable lives on the heap (diagnostics/tests). */
    bool usesHeap() const noexcept { return ops_ && ops_->heap; }

    /**
     * Replace the held callable with a coroutine resumption, fully
     * inline (no type-erased relocate).
     */
    void
    assignCoroutine(std::coroutine_handle<> h) noexcept
    {
        reset();
        ::new (static_cast<void *>(buf_)) void *(h.address());
        ops_ = &kCoroOps;
    }

    /** Destroy the held callable, leaving the callback empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /**
     * Per-type vtable. relocate/destroy are null for trivially
     * copyable/destructible payloads (coroutine handles, reference
     * captures — the hot cases): the caller then uses a branch-free
     * inline byte copy / no-op instead of an indirect call.
     */
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct into @p dst from @p src, destroying src;
         * null means "bitwise copy of the payload bytes suffices". */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null when destruction is a no-op. */
        void (*destroy)(void *storage) noexcept;
        bool heap;
        /** Bytes of the inline buffer the payload occupies: what the
         * bitwise relocation copies (0 for an empty callable, whose
         * storage is never written). */
        std::size_t size;
    };

    /** ops_ already taken from the source; move its payload over. */
    void
    relocateFrom(void *src) noexcept
    {
        if (ops_->relocate)
            ops_->relocate(buf_, src);
        else
            std::memcpy(buf_, src, ops_->size);
    }

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    static void
    coroInvoke(void *storage)
    {
        std::coroutine_handle<>::from_address(
            *static_cast<void **>(storage))
            .resume();
    }

    static constexpr Ops kCoroOps{&coroInvoke, nullptr, nullptr, false,
                                  sizeof(void *)};

    template <typename Fn>
    static void
    inlineInvoke(void *storage)
    {
        (*std::launder(reinterpret_cast<Fn *>(storage)))();
    }

    template <typename Fn>
    static void
    inlineRelocate(void *dst, void *src) noexcept
    {
        Fn *from = std::launder(reinterpret_cast<Fn *>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
    }

    template <typename Fn>
    static void
    inlineDestroy(void *storage) noexcept
    {
        std::launder(reinterpret_cast<Fn *>(storage))->~Fn();
    }

    template <typename Fn>
    static void
    heapInvoke(void *storage)
    {
        (**std::launder(reinterpret_cast<Fn **>(storage)))();
    }

    template <typename Fn>
    static void
    heapDestroy(void *storage) noexcept
    {
        delete *std::launder(reinterpret_cast<Fn **>(storage));
    }

    template <typename Fn>
    static constexpr Ops inlineOps{
        &inlineInvoke<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr
                                         : &inlineRelocate<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr
                                             : &inlineDestroy<Fn>,
        false, std::is_empty_v<Fn> ? 0 : sizeof(Fn)};

    template <typename Fn>
    static constexpr Ops heapOps{&heapInvoke<Fn>, nullptr,
                                 &heapDestroy<Fn>, true, sizeof(Fn *)};

    alignas(std::max_align_t) std::byte buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_CALLBACK_HH
