/**
 * @file
 * Counting global operator new for the allocation-budget tests.
 *
 * Include from exactly one translation unit of a test binary: it
 * replaces that binary's global operator new (and the matching
 * deletes) with malloc-backed ones that count every allocation into
 * g_allocCount, and those above the frame pool's largest size class,
 * as an outgrown coroutine frame makes, into g_bigAllocCount as well.
 * Nothing is replaced under ASan, whose own operator new checks
 * new/delete pairing; the tests skip their budget checks there.
 */

#ifndef MOLECULE_TESTS_CORE_COUNT_NEW_HH
#define MOLECULE_TESTS_CORE_COUNT_NEW_HH

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/task.hh"

inline std::uint64_t g_allocCount = 0;
inline std::uint64_t g_bigAllocCount = 0;

#if !defined(__SANITIZE_ADDRESS__)

namespace count_new {

inline void *
counted(std::size_t n)
{
    ++g_allocCount;
    if (n > molecule::sim::detail::FramePool::kGranule *
                molecule::sim::detail::FramePool::kClasses)
        ++g_bigAllocCount;
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace count_new

// Malloc-backed on purpose; GCC's mismatched-new-delete heuristic
// cannot see that new and delete still pair up.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    return count_new::counted(n);
}

void *
operator new[](std::size_t n)
{
    return count_new::counted(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

#endif

#endif // MOLECULE_TESTS_CORE_COUNT_NEW_HH
