/**
 * @file
 * Coroutine synchronization primitives for simulated processes.
 *
 * Semaphore  - counted resource (PU cores, FPGA regions);
 * Mailbox<T> - unbounded FIFO message queue with blocking receive
 *              (models FIFOs/queues);
 * Join       - fork/join over child tasks.
 *
 * All wakeups are routed through the Simulation event queue at the
 * current instant, preserving deterministic ordering, except a Join's
 * waiter, which resumes in place when the run-ahead rule allows
 * (simulation.hh). Join starts its children inline through the
 * Simulation, so no wake-up runs ahead of the parent's remaining
 * work.
 */

#ifndef MOLECULE_SIM_SYNC_HH
#define MOLECULE_SIM_SYNC_HH

#include <coroutine>
#include <utility>

#include "sim/logging.hh"
#include "sim/ring.hh"
#include "sim/simulation.hh"

namespace molecule::sim {

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
 * Unbounded FIFO message queue between simulated processes.
 *
 * get() blocks until a message is available; put() never blocks.
 * Message transport latency is not modelled here — callers add
 * link/syscall costs explicitly so the cost model stays visible at
 * the protocol layer.
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulation &sim) : sim_(sim) {}

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    std::size_t size() const { return items_.size(); }

    bool empty() const { return items_.empty(); }

    /** Receivers currently blocked in get() (fault poisoning: a
     * crashed producer pushes one sentinel per waiter so nobody
     * hangs). */
    std::size_t waitingGetters() const { return getters_.size(); }

    /** Enqueue @p item and wake the oldest blocked receiver, if any. */
    void
    put(T item)
    {
        items_.push_back(std::move(item));
        if (!getters_.empty())
            sim_.scheduleResume(getters_.pop_front());
    }

    /**
     * Fault path: deliver one copy of @p sentinel to every receiver
     * currently blocked in get(), waking them in arrival order (the
     * same firing order as put() once per waiter, since a blocked
     * getter implies an empty queue). Used by poisoned FIFOs so no
     * reader hangs when its producer dies.
     * @return number of getters poisoned.
     */
    std::size_t
    poisonGetters(const T &sentinel)
    {
        const std::size_t n = getters_.size();
        for (std::size_t i = 0; i < n; ++i) {
            items_.push_back(sentinel);
            sim_.scheduleResume(getters_.pop_front());
        }
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

    /** Dequeue the oldest message (the queue must not be empty). */
    T take() { return items_.pop_front(); }
    ///@}

  private:
    Simulation &sim_;
    detail::Ring<T> items_;
    detail::Ring<std::coroutine_handle<>> getters_;
};

/**
 * Fork/join without a heap vector: spawn() starts each child at once
 * (inline, up to its first suspension) and wait() resumes the parent
 * once every child has finished. The parent wakes at the instant the
 * last child finishes: in place, inside that child's final suspend,
 * when the run-ahead rule allows, else one queued event; no wake-up
 * at all when they all finished before wait(). The Join must outlive
 * its children: keep it in the awaiting frame and co_await wait()
 * before leaving.
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
    childDone(void *value) noexcept override
    {
        (void)value;
        // The waiter may destroy this Join: touch nothing after.
        if (--pending_ == 0 && waiter_)
            sim_.wakeJoined(std::exchange(waiter_, {}));
    }

    Simulation &sim_;
    std::size_t pending_ = 0;
    std::coroutine_handle<> waiter_{};
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_SYNC_HH
