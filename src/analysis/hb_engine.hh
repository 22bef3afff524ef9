/**
 * @file
 * Happens-before (paper §2.3, Algorithms 1 and 3).
 *
 * HB is the smallest partial order containing thread order and
 * release-to-later-acquire orderings per lock. The partial-order
 * computation touches clocks only at synchronization events — which
 * the AnalysisDriver handles for every engine — so the HB policy
 * contributes only the optional analysis phase: FastTrack-style
 * epoch race checks on access events (the paper's "+Analysis"
 * configuration, with "common epoch optimizations ... for both tree
 * clocks and vector clocks").
 *
 * The engine is a template over the clock data structure: with
 * VectorClock it is Algorithm 1, with TreeClock it is Algorithm 3 —
 * the drop-in replacement the paper advocates.
 */

#ifndef TC_ANALYSIS_HB_ENGINE_HH
#define TC_ANALYSIS_HB_ENGINE_HH

#include <vector>

#include "analysis/access_history.hh"
#include "analysis/analysis_driver.hh"

namespace tc {

/**
 * Access-event rules of HB: no clock updates, only the epoch (or
 * flat DJIT+-style, under `useEpochs=false`) race checks. The
 * epoch path takes the same-epoch `ownedBy` shortcut: a history
 * entirely owned by the current thread is covered by program order
 * alone, so the dominant steady-state pattern (a thread
 * re-accessing data it wrote) stays O(1) with no clock probe; the
 * shortcut never touches a clock, so VC/TC work-counter parity is
 * unaffected. The flat path deliberately has no shortcut — it is
 * the pre-epoch ablation and always runs the full per-thread
 * scans.
 */
template <typename ClockT>
class HbPolicy
{
  public:
    void
    configure(const EngineConfig *cfg, ScratchArena * /*arena*/)
    {
        // HB keeps only epoch histories, no per-variable clocks —
        // nothing here needs the run's scratch arena.
        cfg_ = cfg;
    }

    void
    reset()
    {
        vars_.clear();
        flat_.clear();
    }

    void
    reserveVars(VarId n, Tid threads_hint)
    {
        if (!cfg_->analysis)
            return;
        if (cfg_->useEpochs) {
            vars_.assign(static_cast<std::size_t>(n),
                         AccessHistory());
        } else {
            flat_.assign(static_cast<std::size_t>(n),
                         FlatAccessHistory(threads_hint));
        }
    }

    void
    ensureVar(VarId x, Tid threads_hint)
    {
        if (!cfg_->analysis)
            return;
        if (cfg_->useEpochs) {
            if (vars_.size() <= static_cast<std::size_t>(x))
                vars_.resize(static_cast<std::size_t>(x) + 1);
        } else {
            while (flat_.size() <= static_cast<std::size_t>(x))
                flat_.emplace_back(threads_hint);
        }
    }

    void
    onRead(const Event &e, Clk c, ClockT &ct, Tid num_threads,
           RaceSummary &races)
    {
        if (!cfg_->analysis)
            return;
        const Epoch cur(e.tid, c);
        if (cfg_->useEpochs) {
            AccessHistory &v =
                vars_[static_cast<std::size_t>(e.var())];
            // Same-epoch shortcut (epoch.hh): a prior write owned
            // by this thread is covered by program order — skip the
            // clock probe.
            const Epoch w = v.lastWrite();
            if (!w.ownedBy(e.tid) && !w.coveredBy(ct))
                races.record(e.var(), RaceKind::WriteRead, w, cur);
            v.recordRead(e.tid, c, ct, num_threads);
        } else {
            FlatAccessHistory &v =
                flat_[static_cast<std::size_t>(e.var())];
            v.forEachUncoveredWrite(ct, [&](Epoch prior) {
                races.record(e.var(), RaceKind::WriteRead, prior,
                             cur);
            });
            v.recordRead(e.tid, c);
        }
    }

    void
    onWrite(const Event &e, Clk c, ClockT &ct, Tid /*num_threads*/,
            RaceSummary &races)
    {
        if (!cfg_->analysis)
            return;
        const Epoch cur(e.tid, c);
        if (cfg_->useEpochs) {
            AccessHistory &v =
                vars_[static_cast<std::size_t>(e.var())];
            // Same-epoch write shortcut: when the entire history
            // (last write + reads) is owned by this thread, program
            // order covers it — record the new write epoch and
            // return without any clock probes or read scans.
            if (v.lastWrite().ownedBy(e.tid) &&
                v.readsOwnedBy(e.tid)) {
                v.setLastWrite(cur);
                v.clearReads();
                return;
            }
            if (!v.lastWrite().coveredBy(ct)) {
                races.record(e.var(), RaceKind::WriteWrite,
                             v.lastWrite(), cur);
            }
            v.forEachUncoveredRead(ct, [&](Epoch prior) {
                races.record(e.var(), RaceKind::ReadWrite, prior,
                             cur);
            });
            v.setLastWrite(cur);
            v.clearReads();
        } else {
            FlatAccessHistory &v =
                flat_[static_cast<std::size_t>(e.var())];
            v.forEachUncoveredWrite(ct, [&](Epoch prior) {
                races.record(e.var(), RaceKind::WriteWrite, prior,
                             cur);
            });
            v.forEachUncoveredRead(ct, [&](Epoch prior) {
                if (prior.tid != e.tid) {
                    races.record(e.var(), RaceKind::ReadWrite,
                                 prior, cur);
                }
            });
            v.recordWrite(e.tid, c);
        }
    }

    /** @name Checkpoint state (core/serial.hh) @{ */
    void
    saveState(ByteSink &out) const
    {
        out.putU64(vars_.size());
        for (const AccessHistory &v : vars_)
            v.serialize(out);
        out.putU64(flat_.size());
        for (const FlatAccessHistory &v : flat_)
            v.serialize(out);
    }

    bool
    restoreState(ByteSource &in)
    {
        std::uint64_t n = 0;
        if (!in.getU64(n) || n > in.remaining())
            return in.fail();
        vars_.clear();
        vars_.resize(static_cast<std::size_t>(n));
        for (AccessHistory &v : vars_)
            if (!v.deserialize(in))
                return false;
        if (!in.getU64(n) || n > in.remaining())
            return in.fail();
        flat_.clear();
        flat_.resize(static_cast<std::size_t>(n));
        for (FlatAccessHistory &v : flat_)
            if (!v.deserialize(in))
                return false;
        return true;
    }
    /** @} */

  private:
    const EngineConfig *cfg_ = nullptr;
    std::vector<AccessHistory> vars_;
    std::vector<FlatAccessHistory> flat_;
};

/** Algorithm 1/3: the driver instantiated with the HB rules. */
template <typename ClockT>
using HbEngine = AnalysisDriver<ClockT, HbPolicy>;

} // namespace tc

#endif // TC_ANALYSIS_HB_ENGINE_HH
