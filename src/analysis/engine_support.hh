/**
 * @file
 * Shared configuration, result types and clock helpers for the
 * analysis driver and its engine policies (analysis_driver.hh).
 */

#ifndef TC_ANALYSIS_ENGINE_SUPPORT_HH
#define TC_ANALYSIS_ENGINE_SUPPORT_HH

#include <functional>
#include <vector>

#include "core/clock_traits.hh"
#include "core/scratch_arena.hh"
#include "core/tree_clock.hh"
#include "analysis/race.hh"
#include "support/assert.hh"
#include "trace/trace.hh"

namespace tc {

/**
 * Per-event observer: (event index, event, materialized vector time
 * of the performing thread right after the event was processed).
 * Used by tests to compare against the oracle; expensive, leave
 * unset in production runs.
 */
using TimestampObserver = std::function<void(
    std::size_t, const Event &, const std::vector<Clk> &)>;

/** Configuration shared by all engines. */
struct EngineConfig
{
    /** Run the race-detection analysis on access events ("PO +
     * Analysis" in the paper); false computes the partial order
     * only. */
    bool analysis = true;

    /** Cap on collected RacePair reports (counts are unaffected). */
    std::size_t maxReports = 64;

    /** Work-accounting sink shared by every clock of the run. */
    WorkCounters *counters = nullptr;

    /** Optional per-event timestamp observer (tests). */
    TimestampObserver onTimestamp;

    /** Verify every touched tree clock's structural invariants after
     * each event (tests; very slow). No-op for vector clocks. */
    bool deepChecks = false;

    /**
     * Analysis-wide external-id compaction map (thread_id_map.hh),
     * owned by the driver; attached to every clock that understands
     * it (TreeClock). nullptr — and inactive until the first
     * lifecycle event — for clock types that stay external-indexed.
     */
    const ThreadIdMap *idMap = nullptr;
};

/** Outcome of an engine run. */
struct EngineResult
{
    std::uint64_t events = 0;
    RaceSummary races;
    /** Snapshot of the run's work counters (zero when no sink was
     * attached). */
    WorkCounters work;
};

namespace detail {

/**
 * Attach the run's counters, and share the analysis' scratch arena
 * and id map with clocks that can use them. The arena (when given)
 * must outlive the clock — engines keep it next to their clock
 * storage.
 */
template <ClockLike ClockT>
void
configureClock(ClockT &clock, const EngineConfig &cfg,
               ScratchArena *arena = nullptr)
{
    clock.setCounters(cfg.counters);
    if constexpr (requires { clock.setArena(arena); })
        clock.setArena(arena);
    if constexpr (requires { clock.setIdMap(cfg.idMap); })
        clock.setIdMap(cfg.idMap);
}

/**
 * dst ← dst ⊔ src with the O(1) "operand already covered" shortcut
 * of clock_traits.hh hoisted in front of the call. The work
 * accounting mirrors what the clock's own early return would have
 * recorded (one join, one root-entry probe), so VC/TC counter
 * parity and the Theorem 1 dsWork bound are unchanged — the
 * shortcut removes call and dispatch overhead, not accounted work.
 */
template <ClockLike ClockT>
inline void
joinClock(ClockT &dst, const ClockT &src, const EngineConfig &cfg)
{
    if (joinIsVacuous(dst, src)) {
        if (cfg.counters) {
            cfg.counters->joins++;
            if constexpr (RootedClock<ClockT>)
                cfg.counters->dsWork += src.empty() ? 0 : 1;
        }
        return;
    }
    dst.join(src);
}

/** Tree-clock structural invariant check (tests only). */
template <ClockLike ClockT>
void
deepCheck(const ClockT &clock)
{
    if constexpr (std::same_as<ClockT, TreeClock>) {
        const std::string msg = clock.checkInvariants();
        TC_CHECK(msg.empty(), msg.c_str());
    } else {
        (void)clock;
    }
}

} // namespace detail

} // namespace tc

#endif // TC_ANALYSIS_ENGINE_SUPPORT_HH
