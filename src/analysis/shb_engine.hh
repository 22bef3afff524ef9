/**
 * @file
 * Schedulable-happens-before (paper §5.1, Algorithm 4).
 *
 * SHB strengthens HB with last-write-to-read orderings
 * (lw(r) ≤ r for every read r). Per Algorithm 4 the policy keeps a
 * clock LW_x with the vector time of the latest write to each
 * variable: reads join it; writes store into it via
 * CopyCheckMonotone, whose O(1) monotone test fails exactly when the
 * write races its variable's last reads-or-write — the paper's key
 * observation bounding deep copies by the number of write-read
 * races. Synchronization events are the driver's.
 *
 * Race checks (the "+Analysis" phase) follow the SHB paper: a read
 * races the last write when the write's epoch is not covered before
 * the lw-join; a write races the last write / the per-thread last
 * reads when their epochs are not covered.
 */

#ifndef TC_ANALYSIS_SHB_ENGINE_HH
#define TC_ANALYSIS_SHB_ENGINE_HH

#include <vector>

#include "analysis/access_history.hh"
#include "analysis/analysis_driver.hh"

namespace tc {

/** Access-event rules of SHB (Algorithm 4). */
template <typename ClockT>
class ShbPolicy
{
  public:
    void
    configure(const EngineConfig *cfg, ScratchArena *arena)
    {
        cfg_ = cfg;
        arena_ = arena;
    }

    void reset() { vars_.clear(); }

    void
    reserveVars(VarId n)
    {
        if (n <= 0)
            return;
        vars_.reserve(static_cast<std::size_t>(n));
        ensureVar(n - 1);
    }

    void
    ensureVar(VarId x)
    {
        while (vars_.size() <= static_cast<std::size_t>(x)) {
            vars_.emplace_back();
            vars_.back().lastWriteClock.setArena(arena_);
        }
    }

    void
    onRead(const Event &e, Clk c, ClockT &ct, Tid num_threads,
           RaceSummary &races)
    {
        VarState &v = vars_[static_cast<std::size_t>(e.var())];
        if (cfg_->analysis && !v.history.lastWrite().coveredBy(ct)) {
            races.record(e.var(), RaceKind::WriteRead,
                         v.history.lastWrite(), Epoch(e.tid, c));
        }
        detail::joinClock(ct, v.lastWriteClock, *cfg_);
        if (cfg_->analysis)
            v.history.recordRead(e.tid, c, ct, num_threads);
    }

    void
    onWrite(const Event &e, Clk c, ClockT &ct, Tid /*num_threads*/,
            RaceSummary &races)
    {
        VarState &v = vars_[static_cast<std::size_t>(e.var())];
        if (cfg_->analysis) {
            const Epoch cur(e.tid, c);
            if (!v.history.lastWrite().coveredBy(ct)) {
                races.record(e.var(), RaceKind::WriteWrite,
                             v.history.lastWrite(), cur);
            }
            v.history.forEachUncoveredRead(ct, [&](Epoch prior) {
                races.record(e.var(), RaceKind::ReadWrite, prior,
                             cur);
            });
        }
        v.lastWriteClock.copyCheckMonotone(ct);
        if (cfg_->analysis) {
            v.history.setLastWrite(Epoch(e.tid, c));
            v.history.clearReads();
        }
        if (cfg_->deepChecks)
            detail::deepCheck(v.lastWriteClock);
    }

    /** @name Checkpoint state (core/serial.hh) @{ */
    void
    saveState(ByteSink &out) const
    {
        out.putU64(vars_.size());
        for (const VarState &v : vars_) {
            v.lastWriteClock.serialize(out);
            v.history.serialize(out);
        }
    }

    bool
    restoreState(ByteSource &in)
    {
        std::uint64_t n = 0;
        if (!in.getU64(n) || n > in.remaining())
            return in.fail();
        vars_.clear();
        for (std::uint64_t i = 0; i < n; i++) {
            vars_.emplace_back();
            VarState &v = vars_.back();
            v.lastWriteClock.setArena(arena_);
            if (!v.lastWriteClock.deserialize(in) ||
                !v.history.deserialize(in))
                return false;
        }
        return true;
    }
    /** @} */

  private:
    struct VarState
    {
        ClockT lastWriteClock; ///< LW_x of Algorithm 4
        AccessHistory history; ///< epochs for the race checks
    };

    const EngineConfig *cfg_ = nullptr;
    ScratchArena *arena_ = nullptr;
    std::vector<VarState> vars_;
};

/** Algorithm 4: the driver instantiated with the SHB rules. */
template <typename ClockT>
using ShbEngine = AnalysisDriver<ClockT, ShbPolicy>;

} // namespace tc

#endif // TC_ANALYSIS_SHB_ENGINE_HH
