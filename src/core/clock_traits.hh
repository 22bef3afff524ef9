/**
 * @file
 * The compile-time interface the analysis engines require from a
 * clock implementation. TreeClock and VectorClock both model it;
 * the engines are templates over any model, which is how the paper's
 * "drop-in replacement" claim is realized in code. A model is a
 * value plus one wiring call, setArena: everything a run's clocks
 * share (walk scratch, frozen copies, work counters, id map) lives
 * in the run's ScratchArena.
 */

#ifndef TC_CORE_CLOCK_TRAITS_HH
#define TC_CORE_CLOCK_TRAITS_HH

#include <concepts>
#include <cstddef>
#include <vector>

#include "core/scratch_arena.hh"
#include "support/types.hh"

namespace tc {

/**
 * A vector-time data structure usable by the HB/SHB/MAZ engines.
 *
 * Required semantics:
 *  - get(t): current time of thread t (0 if unknown), O(1);
 *  - increment(d): advance the owning thread's entry;
 *  - join(o): pointwise maximum with o;
 *  - monotoneCopy(o): become o, given this ⊑ o — the lock copy
 *    (release events);
 *  - copyCheckMonotone(o): become o with no precondition (SHB §5.1)
 *    — the per-variable copy (last-write and read clocks). Between
 *    clocks of one ScratchArena it drops its own entries and shares
 *    a refcounted frozen version of o's instead of copying them
 *    (tree_clock.hh, "Shared copies"), so it is O(1) until o next
 *    changes beyond its own entry. Tree clocks share at every
 *    width, vector clocks from VectorClock::kShareMinEntries;
 *  - toVector(k): materialized vector time;
 *  - setArena(a): attach the run's clock context (scratch_arena.hh),
 *    whose work counters the clock then credits.
 */
template <typename C>
concept ClockLike =
    std::default_initializable<C> &&
    std::constructible_from<C, Tid, std::size_t> &&
    requires(C c, const C cc, Tid t, Clk d, ScratchArena *a,
             std::size_t n) {
        { cc.get(t) } -> std::same_as<Clk>;
        { cc.localClk() } -> std::same_as<Clk>;
        { c.increment(d) };
        { c.join(cc) };
        { c.monotoneCopy(cc) };
        { c.copyCheckMonotone(cc) };
        { cc.lessThanOrEqual(cc) } -> std::same_as<bool>;
        { cc.toVector(n) } -> std::same_as<std::vector<Clk>>;
        { c.setArena(a) };
        { C::kName } -> std::convertible_to<const char *>;
    };

/**
 * Clocks that expose a dominating root entry: rootTid() names a
 * thread whose entry bounds the whole structure whenever the clocks
 * evolved inside one analysis (direct monotonicity, paper Lemma 3).
 * TreeClock models this; a flat vector clock has no such summary.
 */
template <typename C>
concept RootedClock = ClockLike<C> && requires(const C cc) {
    { cc.rootTid() } -> std::same_as<Tid>;
    { cc.empty() } -> std::same_as<bool>;
};

/**
 * O(1) sufficient test that dst.join(src) would leave dst unchanged:
 * the operand is empty, or its root entry is already covered
 * (Algorithm 2, line 18 — src.localClk() <= dst.get(src.rootTid())).
 * Engines use it to skip the join call entirely on the (dominant)
 * already-covered case. Returns false whenever the clock cannot
 * answer in O(1) — flat clocks always take the real join, so both
 * backends keep identical semantics and the flat backend keeps its
 * measured Θ(k) cost.
 */
template <ClockLike C>
inline bool
joinIsVacuous(const C &dst, const C &src)
{
    if constexpr (RootedClock<C>) {
        // rootTid() names an *internal* slot, so the probe must use
        // the raw accessor on clocks that translate external ids
        // (TreeClock with an active ThreadIdMap); for everything
        // else rawGet is get.
        if constexpr (requires(const C c, Tid t) {
                          { c.rawGet(t) } -> std::same_as<Clk>;
                      }) {
            return src.empty() ||
                   src.localClk() <= dst.rawGet(src.rootTid());
        } else {
            return src.empty() ||
                   src.localClk() <= dst.get(src.rootTid());
        }
    } else {
        (void)dst;
        (void)src;
        return false;
    }
}

} // namespace tc

#endif // TC_CORE_CLOCK_TRAITS_HH
