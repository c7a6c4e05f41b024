/**
 * @file
 * C++20 coroutine task type for simulated processes.
 *
 * Protocol code in Molecule (FIFO reads, executor command loops, shim
 * synchronization round-trips) is written as coroutines that co_await
 * awaitables provided by the kernel (Simulation::delay, SimEvent,
 * Semaphore, Mailbox). A Task<T> is lazily started:
 *
 *  - `co_await someTask(...)` starts the child inline (same simulated
 *    instant, via symmetric transfer) and resumes the parent when the
 *    child finishes, yielding its value;
 *  - `Simulation::spawn(std::move(task))` detaches a root task whose
 *    frame self-destroys on completion.
 *
 * Exceptions propagate through co_await; an exception escaping a
 * detached task is a simulator bug and panics.
 *
 * @warning GCC 12 miscompiles non-trivially-copyable *temporaries*
 * inside co_await full-expressions (frame slots for such temporaries
 * can be clobbered across suspension points, leading to double-frees
 * and dangling strings). Library rules, enforced across this codebase:
 *  1. Coroutines take non-trivial parameters by const reference and
 *     copy them to a named local before the first suspension.
 *  2. Call sites never build a non-trivial temporary inside a
 *     co_await expression — materialize a named local first:
 *       Msg m{...};  co_await fifo->write(m);       // OK
 *       co_await fifo->write(Msg{...});             // MISCOMPILES
 *  3. Trivially-copyable arguments (ids, ints, SimTime) are safe in
 *     any form, and so are trivially copyable awaiters returned by
 *     value (Simulation::DelayAwaiter from a leaf cost).
 *  4. At -O2 the same compiler also drops continuations when co_await
 *     appears inside a larger expression (an if/while condition, ?:,
 *     a cast, a compound assignment). co_await may appear ONLY as a
 *     full expression-statement, the RHS of a simple assignment or
 *     initialization, or directly after co_return:
 *       auto v = co_await f();  if (v) ...   // OK
 *       co_return co_await f();              // OK
 *       if (co_await f()) ...                // MISCOMPILES at -O2
 */

#ifndef MOLECULE_SIM_TASK_HH
#define MOLECULE_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace molecule::sim {

template <typename T>
class Task;

namespace detail {

/**
 * Recycles coroutine frames through thread-local size-class free
 * lists, so a steady-state simulation allocates no frames from the
 * global heap.
 *
 * Thread-local rather than per-Simulation: a coroutine that takes no
 * Simulation has none to allocate from, and a frame only ever lives
 * on the thread that runs its simulation. A frame freed on another
 * thread just joins that thread's lists. Frames above the largest
 * class go straight to the global heap. Pooled blocks are poisoned
 * under ASan, so touching a destroyed frame is still reported.
 */
class FramePool
{
  public:
    static constexpr std::size_t kGranule = 32;
    static constexpr std::size_t kClasses = 64; // frames up to 2 KiB

    static void *
    allocate(std::size_t bytes)
    {
        const std::size_t c = classOf(bytes);
        Lists &l = lists();
        ++l.allocated;
        if (c >= kClasses)
            return ::operator new(bytes);
        if (void *block = l.heads[c]) {
            unpoison(block, blockBytes(c));
            l.heads[c] = *static_cast<void **>(block);
            return block;
        }
        if (!l.closed) {
            // Arms the thread-exit reaper on this thread's first miss.
            thread_local Reaper reaper;
        }
        return ::operator new(blockBytes(c));
    }

    static void
    deallocate(void *block, std::size_t bytes) noexcept
    {
        const std::size_t c = classOf(bytes);
        Lists &l = lists();
        if (c >= kClasses || l.closed) {
            ::operator delete(block);
            return;
        }
        *static_cast<void **>(block) = l.heads[c];
        l.heads[c] = block;
        poison(block, blockBytes(c));
    }

    /** Frames this thread has allocated, pooled or not: the frame
     * budgets of the allocation tests read it. */
    static std::uint64_t allocated() { return lists().allocated; }

  private:
    /** Trivially destructible, so it stays readable while the
     * thread's other thread_locals are destroyed. */
    struct Lists
    {
        void *heads[kClasses] = {};
        std::uint64_t allocated = 0;
        bool closed = false;
    };

    /** Returns the cached blocks to the heap at thread exit; frames
     * freed after that bypass the lists. */
    struct Reaper
    {
        ~Reaper()
        {
            Lists &l = lists();
            l.closed = true;
            for (std::size_t c = 0; c < kClasses; ++c) {
                while (void *block = l.heads[c]) {
                    unpoison(block, blockBytes(c));
                    l.heads[c] = *static_cast<void **>(block);
                    ::operator delete(block);
                }
            }
        }
    };

    static Lists &
    lists()
    {
        thread_local Lists l;
        return l;
    }

    static void
    poison(void *block, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(block, bytes);
#else
        (void)block;
        (void)bytes;
#endif
    }

    static void
    unpoison(void *block, std::size_t bytes)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
#else
        (void)block;
        (void)bytes;
#endif
    }

    static constexpr std::size_t
    classOf(std::size_t bytes)
    {
        return (bytes + kGranule - 1) / kGranule - 1;
    }

    static constexpr std::size_t
    blockBytes(std::size_t c)
    {
        return (c + 1) * kGranule;
    }
};

/**
 * Told when a detached task it watches finishes, from the task's
 * final suspend: what sim::Join counts its children with, so a child
 * needs no wrapper frame.
 */
class DoneSink
{
  public:
    virtual void childDone() noexcept = 0;

  protected:
    ~DoneSink() = default;
};

/** State shared by all task promises, independent of the result type. */
struct PromiseBase
{
    /** Frames come from the FramePool (DESIGN.md §4b). */
    static void *
    operator new(std::size_t bytes)
    {
        return FramePool::allocate(bytes);
    }

    static void
    operator delete(void *frame, std::size_t bytes) noexcept
    {
        FramePool::deallocate(frame, bytes);
    }

    /** Coroutine to resume when this task completes (the awaiter). */
    std::coroutine_handle<> continuation{};
    /** Detached tasks self-destroy at final suspend. */
    bool detached = false;
    /** Told as a detached task finishes (may be null). */
    DoneSink *sink = nullptr;
    std::exception_ptr exception{};

    std::suspend_always
    initial_suspend() noexcept
    {
        return {};
    }

    struct FinalAwaiter
    {
        bool detached;

        /**
         * Detached tasks do not suspend at the final point: control
         * flows off the end of the coroutine and the implementation
         * destroys the frame itself. This avoids the manual
         * destroy-inside-await_suspend idiom.
         */
        bool await_ready() const noexcept { return detached; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            std::coroutine_handle<> cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    FinalAwaiter
    final_suspend() noexcept
    {
        if (detached && exception) {
            // No awaiter exists to receive the exception.
            panic("exception escaped a detached simulation task");
        }
        if (sink != nullptr)
            sink->childDone();
        return {detached};
    }

    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase
{
    std::optional<T> value;

    Task<T> get_return_object();

    void
    return_value(T v)
    {
        value.emplace(std::move(v));
    }
};

template <>
struct Promise<void> : PromiseBase
{
    Task<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine producing a T in simulated time.
 *
 * Move-only. Destroying an unstarted or completed (non-detached) Task
 * destroys the coroutine frame. A plain function may instead return
 * Task::ready(value) — a task that is already complete and has no
 * frame — for a path that never suspends.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::Promise<T>;
    using handle_type = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(handle_type h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr)),
          ready_(std::exchange(other.ready_, std::nullopt))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
            ready_ = std::exchange(other.ready_, std::nullopt);
        }
        return *this;
    }

    /** A completed task yielding @p v; no coroutine frame. */
    template <typename... V>
    static Task
    ready(V &&...v)
    {
        static_assert(kReadyable, "only small trivially copyable "
                                  "results can be ready");
        Task t;
        t.ready_.emplace(std::forward<V>(v)...);
        return t;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle_ != nullptr || ready_; }

    bool done() const { return handle_ ? handle_.done() : bool(ready_); }

    /**
     * Release ownership, mark detached and start execution.
     * Used by Simulation::spawn; the frame self-destroys on completion.
     * @p sink, when set, is told as the task finishes (at once for a
     * ready task).
     */
    void
    detachAndStart(detail::DoneSink *sink = nullptr)
    {
        MOLECULE_ASSERT(valid(), "detaching an empty task");
        if (!handle_) {
            ready_.reset(); // ready: already ran to completion
            if (sink != nullptr)
                sink->childDone();
            return;
        }
        handle_type h = std::exchange(handle_, nullptr);
        h.promise().detached = true;
        h.promise().sink = sink;
        h.resume();
    }

    /** Awaiter: start the child inline, resume parent on completion. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            handle_type handle;
            std::optional<Slot> *ready;

            bool await_ready() const noexcept { return !handle; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                handle.promise().continuation = cont;
                return handle; // symmetric transfer: run child now
            }

            T
            await_resume()
            {
                if constexpr (std::is_void_v<T>) {
                    if (!handle)
                        return;
                } else if constexpr (kReadyable) {
                    if (!handle)
                        return **ready;
                }
                auto &p = handle.promise();
                if (p.exception)
                    std::rethrow_exception(p.exception);
                if constexpr (!std::is_void_v<T>) {
                    MOLECULE_ASSERT(p.value.has_value(),
                                    "task finished without a value");
                    return std::move(*p.value);
                }
            }
        };
        MOLECULE_ASSERT(valid(), "awaiting an empty task");
        return Awaiter{handle_, &ready_};
    }

  private:
    /** What a ready task yields (an empty tag for Task<void>). */
    struct Void
    {};
    using Value = std::conditional_t<std::is_void_v<T>, Void, T>;
    /** Every frame awaiting a Task<T> holds the Task itself, so only
     * small trivially copyable results get an inline ready slot. */
    static constexpr bool kReadyable =
        std::is_trivially_copyable_v<Value> && sizeof(Value) <= 32;
    using Slot = std::conditional_t<kReadyable, Value, Void>;

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    handle_type handle_{};
    /** Set only on a ready task (which has no handle_). */
    std::optional<Slot> ready_;
};

namespace detail {

template <typename T>
Task<T>
Promise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void>
Promise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace molecule::sim

#endif // MOLECULE_SIM_TASK_HH
