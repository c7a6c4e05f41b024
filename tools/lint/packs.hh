/**
 * @file
 * Registration entry points of the four molecule-lint rule packs.
 *
 * Pack order is canonical (sim-purity first for bit-for-bit
 * compatibility with PR 2's lint_determinism report order, then
 * lifetime, error-discard, layering); makeRegistry() in engine.cc
 * calls these in that order.
 */

#ifndef MOLECULE_TOOLS_LINT_PACKS_HH
#define MOLECULE_TOOLS_LINT_PACKS_HH

namespace molecule::lint {

class Registry;

/**
 * sim-purity: the PR 2 determinism rules, migrated — wallclock,
 * pointer-keyed-container, std-function-in-sim, unordered-iteration.
 * Honors legacy det:allow(<rule>) suppressions.
 */
void registerSimPurity(Registry &registry);

/**
 * lifetime: ref-capture-escape (by-reference lambda captures handed
 * to schedule/spawn), arena-escape (sim::Arena / obs::SpanBuffer
 * pointers used across reset()/clear()/dropOldest — the copy-out-
 * before-reset rule of DESIGN.md §4d), view-of-temporary (spans /
 * data() bound to a temporary's storage), coroutine-param (a Task
 * coroutine taking an owning type by value, task.hh rule 1),
 * hand-rolled-spares (a reuse list kept in a plain std::vector
 * outside sim/spares.hh).
 */
void registerLifetime(Registry &registry);

/**
 * error-discard: call sites that drop a core::Status /
 * core::Expected<T> result (complements the [[nodiscard]]
 * annotations; catches discards across co_await as well).
 */
void registerErrorDiscard(Registry &registry);

/**
 * layering: the module include wall — a file under src/<mod>/ may
 * include another module only at the same or a lower layering rank
 * (see DESIGN.md §7 for the sanctioned DAG and the two exempt
 * cross-cutting vocabulary headers).
 */
void registerLayering(Registry &registry);

} // namespace molecule::lint

#endif // MOLECULE_TOOLS_LINT_PACKS_HH
