/**
 * @file
 * Shared configuration, result types and clock helpers for the
 * analysis driver and its engine policies (analysis_driver.hh).
 * Clocks take their wiring from AnalysisDriver's ScratchArena
 * through one setArena() call: the arena points at
 * EngineConfig::counters and holds the run's id map, so the
 * configuration is four plain settings.
 */

#ifndef TC_ANALYSIS_ENGINE_SUPPORT_HH
#define TC_ANALYSIS_ENGINE_SUPPORT_HH

#include <vector>

#include "core/clock_traits.hh"
#include "core/tree_clock.hh"
#include "analysis/race.hh"
#include "support/assert.hh"
#include "trace/trace.hh"

namespace tc {

/** Configuration shared by all engines. */
struct EngineConfig
{
    /** Run the race-detection analysis on access events ("PO +
     * Analysis" in the paper); false computes the partial order
     * only. */
    bool analysis = true;

    /** Cap on collected RacePair reports (counts are unaffected). */
    std::size_t maxReports = 64;

    /** Work-accounting sink shared by every clock of the run:
     * AnalysisDriver's ScratchArena points every clock at it. */
    WorkCounters *counters = nullptr;

    /** Verify every touched tree clock's structural invariants after
     * each event (tests; very slow). No-op for vector clocks. */
    bool deepChecks = false;
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
