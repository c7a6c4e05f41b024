/**
 * @file
 * Coroutine synchronization primitives for simulated processes.
 *
 * SimEvent   - one-shot broadcast (trigger wakes all current waiters);
 * Semaphore  - counted resource (PU cores, FPGA regions);
 * Mailbox<T> - FIFO message queue with blocking receive and optional
 *              bounded capacity with blocking send (models FIFOs/queues);
 * Join       - fork/join over child tasks.
 *
 * All wakeups are routed through the Simulation event queue at the
 * current instant, preserving deterministic ordering.
 */

#ifndef MOLECULE_SIM_SYNC_HH
#define MOLECULE_SIM_SYNC_HH

#include <algorithm>
#include <coroutine>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace molecule::sim {

namespace detail {

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

} // namespace detail

/**
 * One-shot broadcast event.
 *
 * wait() suspends until trigger() is called; waiters arriving after the
 * trigger resume immediately. reset() re-arms the event.
 */
class SimEvent
{
  public:
    explicit SimEvent(Simulation &sim) : sim_(sim) {}

    SimEvent(const SimEvent &) = delete;
    SimEvent &operator=(const SimEvent &) = delete;

    bool triggered() const { return triggered_; }

    /**
     * Wake every waiter (in arrival order) at the current instant.
     * One batched schedule: the waiters get consecutive sequence
     * numbers, so the firing order is identical to resuming them in a
     * loop — minus the per-waiter queue-entry overhead (startup
     * prewarm pools wake dozens at once).
     */
    void
    trigger()
    {
        if (triggered_)
            return;
        triggered_ = true;
        sim_.scheduleResumeBatch(waiters_);
        waiters_.clear();
    }

    /** Re-arm a triggered event. Must not be called with waiters. */
    void
    reset()
    {
        MOLECULE_ASSERT(waiters_.empty(), "reset() with pending waiters");
        triggered_ = false;
    }

    auto
    wait()
    {
        struct Awaiter
        {
            SimEvent *event;

            bool await_ready() const noexcept { return event->triggered_; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                event->waiters_.push_back(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{this};
    }

  private:
    Simulation &sim_;
    bool triggered_ = false;
    /** Contiguous so trigger() can hand the whole set to the batch
     * scheduler as one span. */
    std::vector<std::coroutine_handle<>> waiters_;
};

/**
 * Counting semaphore; acquire order is FIFO.
 *
 * Used for core occupancy (a PU with N cores is a Semaphore(N) and a
 * compute burst is acquire/delay/release) and any other contended
 * hardware resource.
 */
class Semaphore
{
  public:
    Semaphore(Simulation &sim, std::size_t initial)
        : sim_(sim), count_(initial)
    {}

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    std::size_t available() const { return count_; }

    std::size_t waiting() const { return waiters_.size(); }

    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore *sem;

            bool
            await_ready() noexcept
            {
                // Respect FIFO fairness: arrive behind existing waiters.
                if (sem->waiters_.empty() && sem->count_ > 0) {
                    --sem->count_;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem->waiters_.push_back(h);
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{this};
    }

    void
    release()
    {
        // Hand the unit directly to the oldest waiter (if any) so a
        // late-arriving acquire cannot steal it between wakeup and
        // resumption; otherwise return it to the pool.
        if (!waiters_.empty()) {
            sim_.scheduleResume(waiters_.pop_front());
        } else {
            ++count_;
        }
    }

  private:
    Simulation &sim_;
    std::size_t count_;
    detail::Ring<std::coroutine_handle<>> waiters_;
};

/**
 * RAII guard running acquire/release around a scope.
 * Usage: `co_await sem.acquire(); SemGuard g(sem);`
 */
class SemGuard
{
  public:
    explicit SemGuard(Semaphore &sem) : sem_(&sem) {}

    SemGuard(const SemGuard &) = delete;
    SemGuard &operator=(const SemGuard &) = delete;

    ~SemGuard()
    {
        if (sem_)
            sem_->release();
    }

  private:
    Semaphore *sem_;
};

/**
 * FIFO message queue between simulated processes.
 *
 * get() blocks until a message is available; put() blocks while the
 * queue is at capacity (default: unbounded). Message transport latency
 * is not modelled here — callers add link/syscall costs explicitly so
 * the cost model stays visible at the protocol layer.
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulation &sim,
                     std::size_t capacity =
                         std::numeric_limits<std::size_t>::max())
        : sim_(sim), capacity_(capacity)
    {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    std::size_t size() const { return items_.size(); }

    bool empty() const { return items_.empty(); }

    /** Receivers currently blocked in get() (fault poisoning: a
     * crashed producer pushes one sentinel per waiter so nobody
     * hangs). */
    std::size_t waitingGetters() const { return getters_.size(); }

    /** Non-blocking send. @retval false the queue was full. */
    bool
    tryPut(T item)
    {
        if (items_.size() >= capacity_)
            return false;
        enqueue(std::move(item));
        return true;
    }

    /**
     * Awaiter for a blocking send. Owns the item: when the queue is
     * full the item is handed over at wake time by the consumer side
     * (exact-capacity handover, no wakeup race). Non-coroutine by
     * design — see the GCC 12 note in task.hh.
     */
    class PutAwaiter
    {
      public:
        PutAwaiter(Mailbox *box, T item)
            : box_(box), item_(std::move(item))
        {}

        bool
        await_ready()
        {
            if (box_->items_.size() < box_->capacity_ &&
                box_->putters_.empty()) {
                box_->enqueue(std::move(item_));
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            box_->putters_.push_back(PendingPut{h, this});
        }

        void await_resume() const noexcept {}

      private:
        friend class Mailbox;

        Mailbox *box_;
        T item_;
    };

    /** Blocking send: waits for space, then enqueues. */
    PutAwaiter
    put(T item)
    {
        return PutAwaiter(this, std::move(item));
    }

    /**
     * Fault path: deliver one copy of @p sentinel to every receiver
     * currently blocked in get(), waking them in one batch (arrival
     * order — the same firing order as tryPut once per waiter, since
     * a blocked getter implies an empty queue). Used by poisoned
     * FIFOs so no reader hangs when its producer dies.
     * @return number of getters poisoned.
     */
    std::size_t
    poisonGetters(const T &sentinel)
    {
        if (getters_.empty())
            return 0;
        const std::size_t n = getters_.size();
        for (std::size_t i = 0; i < n; ++i)
            items_.push_back(sentinel);
        // Two batches when the ring wraps: still consecutive sequence
        // numbers in arrival order.
        const auto [head, tail] = getters_.spans();
        sim_.scheduleResumeBatch(head);
        sim_.scheduleResumeBatch(tail);
        getters_.clear();
        return n;
    }

    /** Blocking receive: waits for a message, dequeues and returns it. */
    Task<T>
    get()
    {
        while (items_.empty()) {
            ItemWait waiter{this};
            co_await waiter;
        }
        T item = items_.pop_front();
        drainOnePutter();
        co_return item;
    }

  private:
    struct PendingPut
    {
        std::coroutine_handle<> handle;
        PutAwaiter *awaiter;
    };

    struct ItemWait
    {
        Mailbox *box;

        bool await_ready() const noexcept { return !box->items_.empty(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            box->getters_.push_back(h);
        }

        void await_resume() const noexcept {}
    };

    void
    enqueue(T item)
    {
        items_.push_back(std::move(item));
        if (!getters_.empty())
            sim_.scheduleResume(getters_.pop_front());
    }

    /**
     * A slot freed up: move the oldest blocked putter's item into the
     * queue *now* (exact capacity, FIFO order) and wake it.
     */
    void
    drainOnePutter()
    {
        if (!putters_.empty()) {
            PendingPut p = putters_.pop_front();
            enqueue(std::move(p.awaiter->item_));
            sim_.scheduleResume(p.handle);
        }
    }

    Simulation &sim_;
    std::size_t capacity_;
    detail::Ring<T> items_;
    detail::Ring<std::coroutine_handle<>> getters_;
    detail::Ring<PendingPut> putters_;
};

/**
 * Fork/join without a heap vector: spawn() starts each child at once
 * (inline, up to its first suspension) and wait() resumes the parent
 * once every child has finished. The parent's wake-up is one event at
 * the instant the last child finishes, and none when they all
 * finished before wait(), exactly as a SimEvent trigger would order
 * it. The Join must outlive its children: keep it in the awaiting
 * frame and co_await wait() before leaving.
 * @code
 *   sim::Join kids(sim);
 *   for (int pu : pus)
 *       kids.spawn(prepare(pu));
 *   co_await kids.wait();
 * @endcode
 */
class Join
{
  public:
    explicit Join(Simulation &sim) : sim_(sim) {}

    Join(const Join &) = delete;
    Join &operator=(const Join &) = delete;

    /** Start @p task now; it counts toward wait(). */
    void
    spawn(Task<> task)
    {
        ++pending_;
        sim_.spawn(run(std::move(task), this));
    }

    /** Children still running. */
    std::size_t pending() const { return pending_; }

    auto
    wait()
    {
        struct Awaiter
        {
            Join *join;

            bool await_ready() const noexcept { return join->pending_ == 0; }

            void
            await_suspend(std::coroutine_handle<> h) noexcept
            {
                join->waiter_ = h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{this};
    }

  private:
    static Task<>
    run(Task<> task, Join *join)
    {
        co_await std::move(task);
        if (--join->pending_ == 0 && join->waiter_)
            join->sim_.scheduleResume(std::exchange(join->waiter_, {}));
    }

    Simulation &sim_;
    std::size_t pending_ = 0;
    std::coroutine_handle<> waiter_{};
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SYNC_HH
