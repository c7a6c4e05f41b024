/**
 * @file
 * Status and error reporting helpers in the gem5 spirit.
 *
 * panic()  - an internal invariant was violated (a Molecule bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 */

#ifndef MOLECULE_SIM_LOGGING_HH
#define MOLECULE_SIM_LOGGING_HH

#include <cstdarg>

namespace molecule::sim {

/**
 * Report an internal invariant violation and abort.
 * Use when the condition can only arise from a simulator bug.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Use when the simulation cannot continue but the simulator is fine.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Formatted assert: panics with a message when cond is false. */
#define MOLECULE_ASSERT(cond, ...)                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::molecule::sim::panic("assertion '" #cond "' failed: "        \
                                   __VA_ARGS__);                           \
        }                                                                  \
    } while (0)

} // namespace molecule::sim

#endif // MOLECULE_SIM_LOGGING_HH
