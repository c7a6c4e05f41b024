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
 * current instant, preserving deterministic ordering. Join starts its
 * children inline through the Simulation, so no delay runs ahead of
 * the parent's remaining work (simulation.hh).
 */

#ifndef MOLECULE_SIM_SYNC_HH
#define MOLECULE_SIM_SYNC_HH

#include <algorithm>
#include <coroutine>
#include <limits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/ring.hh"
#include "sim/simulation.hh"

namespace molecule::sim {

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
 * Holds a unit taken with Semaphore::acquire() for one delay and hands
 * it back as the awaiter resumes: a burst on a contended resource (a
 * core, a shim handler thread) that needs no frame of its own.
 * Trivially copyable: any co_await form is safe (task.hh rule 3).
 */
class HeldDelay
{
  public:
    HeldDelay(Semaphore &sem, Simulation::DelayAwaiter delay)
        : sem_(&sem), delay_(delay)
    {}

    bool await_ready() const noexcept { return false; }

    /** Forwards the delay's run-ahead verdict (false: resume now). */
    [[nodiscard]] bool
    await_suspend(std::coroutine_handle<> h) const
    {
        return delay_.await_suspend(h);
    }

    void await_resume() const { sem_->release(); }

  private:
    Semaphore *sem_;
    Simulation::DelayAwaiter delay_;
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
        while (items_.empty())
            co_await itemWait();
        co_return take();
    }

    /** Awaiter of itemWait(): trivially copyable (task.hh rule 3). */
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

    /** @name get() in steps
     * For a caller that already owns a frame (DESIGN.md §4b), the
     * same receive with no frame of its own:
     * @code
     *   while (box.empty())
     *       co_await box.itemWait();
     *   T item = box.take();
     * @endcode */
    ///@{

    /** Suspend until the queue may hold a message; check again. */
    ItemWait itemWait() { return ItemWait{this}; }

    /** Dequeue the oldest message (the queue must not be empty) and
     * let the oldest blocked putter in. */
    T
    take()
    {
        T item = items_.pop_front();
        drainOnePutter();
        return item;
    }
    ///@}

  private:
    struct PendingPut
    {
        std::coroutine_handle<> handle;
        PutAwaiter *awaiter;
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
class Join final : private detail::DoneSink
{
  public:
    explicit Join(Simulation &sim) : sim_(sim) {}

    Join(const Join &) = delete;
    Join &operator=(const Join &) = delete;

    /** Start @p task now, detached (its result is dropped); it counts
     * toward wait() and tells this Join from its final suspend, with
     * no wrapper frame. */
    template <typename T>
    void
    spawn(Task<T> task)
    {
        ++pending_;
        sim_.startInline(task, this);
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
    void
    childDone() noexcept override
    {
        if (--pending_ == 0 && waiter_)
            sim_.scheduleResume(std::exchange(waiter_, {}));
    }

    Simulation &sim_;
    std::size_t pending_ = 0;
    std::coroutine_handle<> waiter_{};
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SYNC_HH
