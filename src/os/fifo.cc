#include "os/fifo.hh"

#include "hw/calibration.hh"
#include "os/kernel.hh"

namespace molecule::os {

namespace calib = hw::calib;

LocalFifo::LocalFifo(LocalOs &os, std::string name)
    : os_(os), name_(std::move(name)), queue_(os.simulation())
{}

sim::Task<>
LocalFifo::write(const FifoMessage &msg)
{
    // Copy before the first suspension so the reference need not
    // outlive the caller's co_await expression.
    FifoMessage owned = msg;
    // write(2): syscall entry + per-byte copy into the pipe buffer.
    const auto copy = sim::SimTime::nanoseconds(std::int64_t(
        double(owned.bytes) * calib::kFifoCopyNsPerByte));
    co_await os_.swDelay(calib::kSyscallCost + copy);
    queue_.put(std::move(owned));
}

sim::Task<FifoMessage>
LocalFifo::read()
{
    FifoMessage msg = co_await queue_.get();
    // read(2) syscall plus the scheduler wakeup that unblocked us.
    co_await os_.swDelay(calib::kSyscallCost + calib::kSchedWakeupCost);
    co_return msg;
}

} // namespace molecule::os
