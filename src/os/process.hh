/**
 * @file
 * Process objects managed by a LocalOs.
 */

#ifndef MOLECULE_OS_PROCESS_HH
#define MOLECULE_OS_PROCESS_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "os/memory.hh"

namespace molecule::os {

class LocalOs;

/** Local process identifier (unique within one LocalOs). */
using Pid = std::int32_t;

enum class ProcState { Running, Zombie };

/**
 * A process: pid, name, address space and a thread count (the forkable
 * language runtime merges threads before cfork, §4.2).
 */
class Process
{
  public:
    Process(LocalOs &os, Pid pid, std::string name, AddressSpace space)
        : os_(os), pid_(pid), name_(std::move(name)),
          space_(std::move(space))
    {}

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    Pid pid() const { return pid_; }

    const std::string &name() const { return name_; }

    LocalOs &os() { return os_; }

    AddressSpace &addressSpace() { return space_; }
    const AddressSpace &addressSpace() const { return space_; }

    ProcState state() const { return state_; }

    bool alive() const { return state_ == ProcState::Running; }

    int threads() const { return threads_; }

    void setThreads(int n) { threads_ = n; }

  private:
    friend class LocalOs;

    /** Take a record over for a new process (LocalOs reuses exited
     * ones); the address space is empty and keeps its capacity. */
    void
    reset(Pid pid, std::string_view name)
    {
        pid_ = pid;
        name_.assign(name);
        state_ = ProcState::Running;
        threads_ = 1;
    }

    LocalOs &os_;
    Pid pid_;
    std::string name_;
    AddressSpace space_;
    ProcState state_ = ProcState::Running;
    int threads_ = 1;
};

} // namespace molecule::os

#endif // MOLECULE_OS_PROCESS_HH
