/**
 * @file
 * Coroutines to drive a bare EventQueue with: the queue only resumes
 * handles, so a test schedules a Probe's handle and the Probe runs its
 * callable once per resume. One Probe may be queued many times over;
 * Tags makes one per tag that logs it.
 */

#ifndef MOLECULE_TESTS_SIM_PROBE_HH
#define MOLECULE_TESTS_SIM_PROBE_HH

#include <coroutine>
#include <deque>
#include <exception>
#include <utility>
#include <vector>

namespace molecule::test {

class Probe
{
  public:
    struct promise_type
    {
        Probe
        get_return_object()
        {
            return Probe(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    Probe(Probe &&o) noexcept : h_(std::exchange(o.h_, {})) {}

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;
    Probe &operator=(Probe &&) = delete;

    ~Probe()
    {
        if (h_)
            h_.destroy();
    }

    /** What to schedule on the queue. */
    std::coroutine_handle<> handle() const { return h_; }

  private:
    explicit Probe(std::coroutine_handle<promise_type> h) : h_(h) {}

    std::coroutine_handle<promise_type> h_;
};

/** Calls @p *fn each time it is resumed; @p fn must outlive it. */
template <typename F>
Probe
onResume(F *fn)
{
    for (;;) {
        (*fn)();
        co_await std::suspend_always{};
    }
}

/** Probes that append their tag to one log, one probe per tag. */
class Tags
{
  public:
    Tags() = default;

    Tags(const Tags &) = delete;
    Tags &operator=(const Tags &) = delete;

    /** The handle of a new probe that logs @p tag. */
    std::coroutine_handle<>
    operator()(int tag)
    {
        fns_.push_back(Log{this, tag});
        probes_.push_back(onResume(&fns_.back()));
        return probes_.back().handle();
    }

    std::vector<int> log;

  private:
    struct Log
    {
        Tags *self;
        int tag;

        void operator()() const { self->log.push_back(tag); }
    };

    /** Deques: a probe holds a pointer to its Log. */
    std::deque<Log> fns_;
    std::deque<Probe> probes_;
};

} // namespace molecule::test

#endif // MOLECULE_TESTS_SIM_PROBE_HH
