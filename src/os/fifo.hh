/**
 * @file
 * Local named FIFOs (Linux-FIFO model).
 *
 * The paper's same-PU communication fast path (Nightcore-style internal
 * calls, §4.3) and the Fig 8 baseline are Linux FIFOs. The cost model:
 *
 *   writer: write syscall + per-byte kernel copy
 *   reader: read syscall + scheduler wakeup when it was blocked
 *
 * so a one-way transfer costs 2 syscalls + copy + wakeup, all scaled by
 * the PU's swFactor — ~8-16 us on the host CPU, ~35-75 us on BF-1 over
 * Fig 8's 16 B..2 KB range.
 */

#ifndef MOLECULE_OS_FIFO_HH
#define MOLECULE_OS_FIFO_HH

#include <cstdint>
#include <string>

#include "sim/sync.hh"

namespace molecule::os {

class LocalOs;

/** A message in flight through a FIFO: size plus an opaque tag. */
struct FifoMessage
{
    std::uint64_t bytes = 0;
    std::string tag;
};

/**
 * One named FIFO on one PU. Unbounded (pipe buffers are larger than
 * our serverless messages); blocking read.
 */
class LocalFifo
{
  public:
    LocalFifo(LocalOs &os, std::string name);

    const std::string &name() const { return name_; }

    /**
     * Write: charges writer-side syscall + copy costs, then enqueues a
     * copy of @p msg. Await inline (the reference must stay valid).
     */
    sim::Task<> write(const FifoMessage &msg);

    /** Blocking read: dequeues, charging reader-side costs. */
    sim::Task<FifoMessage> read();

    std::size_t depth() const { return queue_.size(); }

    /** No message queued and no reader blocked. */
    bool
    idle() const
    {
        return queue_.empty() && queue_.waitingGetters() == 0;
    }

    /**
     * Fault path: wake every blocked reader with a sentinel message
     * (zero bytes, @p tag starting with "!") so no coroutine hangs on
     * a FIFO whose writer died. Readers must check the tag.
     */
    void
    poison(const std::string &tag)
    {
        // One batched wake for all blocked readers: same sentinel per
        // reader and the same resume order as a tryPut-per-waiter
        // loop, in a single event-queue transaction.
        (void)queue_.poisonGetters(FifoMessage{0, tag});
    }

  private:
    friend class LocalOs;

    LocalOs &os_;
    std::string name_;
    sim::Mailbox<FifoMessage> queue_;
};

} // namespace molecule::os

#endif // MOLECULE_OS_FIFO_HH
