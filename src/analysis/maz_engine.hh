/**
 * @file
 * The Mazurkiewicz partial order (paper §5.2, Algorithm 5).
 *
 * MAZ strengthens HB with trace-orderings between every pair of
 * conflicting events. Per Algorithm 5 the policy keeps, per
 * variable x: the last-write clock LW_x, per-thread read clocks
 * R_{t,x} and the set LRDs_x of threads that read x since the last
 * write. A write joins LW_x and all R_{t',x} for t' in LRDs_x (only
 * the first read-to-write ordering needs explicit work; later ones
 * follow transitively via write-to-write orderings), then copies
 * into LW_x and clears LRDs_x. Synchronization events are the
 * driver's. Both per-variable copies (R_{t,x} at reads, LW_x at
 * writes) are copyCheckMonotone, the clocks' sharing copy: its O(1)
 * monotone test always passes here (each target was just joined
 * into, or copied from, the thread's clock), and the target shares
 * the thread clock's frozen entries until that clock next changes
 * beyond its own entry.
 *
 * The analysis phase counts *reversible* conflicting pairs — the
 * pairs a stateless model checker would try to reverse: a candidate
 * predecessor access races the current access iff its epoch is not
 * covered by the current thread's clock before the current event's
 * conflict edges are added.
 *
 * The R_{t,x} clocks live in a pooled store (a grow-only deque with
 * stable addresses) instead of per-clock heap allocations: clocks
 * are created once per (variable, thread) pair on the first read
 * and never freed, so pooling removes the unique_ptr indirection
 * and the allocator round trip per slot while packing the clocks
 * densely in creation order.
 */

#ifndef TC_ANALYSIS_MAZ_ENGINE_HH
#define TC_ANALYSIS_MAZ_ENGINE_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "analysis/analysis_driver.hh"

namespace tc {

/** Access-event rules of MAZ (Algorithm 5). */
template <typename ClockT>
class MazPolicy
{
  public:
    void
    configure(const EngineConfig *cfg, ScratchArena *arena)
    {
        cfg_ = cfg;
        arena_ = arena;
    }

    void
    reset()
    {
        vars_.clear();
        pool_.clear();
    }

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
    onRead(const Event &e, Clk c, ClockT &ct, Tid /*num_threads*/,
           RaceSummary &races)
    {
        VarState &v = vars_[static_cast<std::size_t>(e.var())];
        if (cfg_->analysis && !v.lastWriteEpoch.coveredBy(ct)) {
            races.record(e.var(), RaceKind::WriteRead,
                         v.lastWriteEpoch, Epoch(e.tid, c));
        }
        detail::joinClock(ct, v.lastWriteClock, *cfg_);
        ClockT &r = readClock(v, e.tid);
        r.copyCheckMonotone(ct);
        if (std::find(v.lrds.begin(), v.lrds.end(), e.tid) ==
            v.lrds.end()) {
            v.lrds.push_back(e.tid);
        }
        if (cfg_->deepChecks)
            detail::deepCheck(r);
    }

    void
    onWrite(const Event &e, Clk c, ClockT &ct, Tid /*num_threads*/,
            RaceSummary &races)
    {
        VarState &v = vars_[static_cast<std::size_t>(e.var())];
        if (cfg_->analysis) {
            // All checks precede this event's joins: the question
            // is whether the prior access and this one are ordered
            // *without* the direct edge.
            const Epoch cur(e.tid, c);
            if (!v.lastWriteEpoch.coveredBy(ct)) {
                races.record(e.var(), RaceKind::WriteWrite,
                             v.lastWriteEpoch, cur);
            }
            for (Tid reader : v.lrds) {
                const ClockT &rc = readClockOf(v, reader);
                const Epoch re(reader, rc.get(reader));
                if (!re.coveredBy(ct)) {
                    races.record(e.var(), RaceKind::ReadWrite, re,
                                 cur);
                }
            }
        }
        detail::joinClock(ct, v.lastWriteClock, *cfg_);
        for (Tid reader : v.lrds)
            detail::joinClock(ct, readClockOf(v, reader), *cfg_);
        v.lastWriteClock.copyCheckMonotone(ct);
        v.lastWriteEpoch = Epoch(e.tid, c);
        v.lrds.clear();
        if (cfg_->deepChecks)
            detail::deepCheck(v.lastWriteClock);
    }

    /** @name Checkpoint state (core/serial.hh)
     * The pooled R_{t,x} store is rebuilt in creation order, so
     * every readSlots reference stays valid; slot and LRDs indices
     * are validated against the restored pool on load.
     * @{ */
    void
    saveState(ByteSink &out) const
    {
        out.putU64(pool_.size());
        for (const ClockT &clock : pool_)
            clock.serialize(out);
        out.putU64(vars_.size());
        for (const VarState &v : vars_) {
            v.lastWriteClock.serialize(out);
            out.putI32(v.lastWriteEpoch.tid);
            out.putU32(v.lastWriteEpoch.clk);
            out.putVec(v.readSlots);
            out.putVec(v.lrds);
        }
    }

    bool
    restoreState(ByteSource &in)
    {
        std::uint64_t pool_size = 0;
        if (!in.getU64(pool_size) || pool_size > in.remaining())
            return in.fail();
        pool_.clear();
        for (std::uint64_t i = 0; i < pool_size; i++) {
            pool_.emplace_back();
            pool_.back().setArena(arena_);
            if (!pool_.back().deserialize(in))
                return false;
        }
        std::uint64_t n = 0;
        if (!in.getU64(n) || n > in.remaining())
            return in.fail();
        vars_.clear();
        for (std::uint64_t i = 0; i < n; i++) {
            vars_.emplace_back();
            VarState &v = vars_.back();
            v.lastWriteClock.setArena(arena_);
            if (!v.lastWriteClock.deserialize(in) ||
                !in.getI32(v.lastWriteEpoch.tid) ||
                !in.getU32(v.lastWriteEpoch.clk) ||
                !in.getVec(v.readSlots) || !in.getVec(v.lrds))
                return false;
            for (std::uint32_t slot : v.readSlots)
                if (slot > pool_.size())
                    return in.fail();
            for (Tid reader : v.lrds) {
                const auto r = static_cast<std::size_t>(reader);
                if (reader < 0 || r >= v.readSlots.size() ||
                    v.readSlots[r] == 0)
                    return in.fail();
            }
        }
        return true;
    }
    /** @} */

  private:
    struct VarState
    {
        ClockT lastWriteClock; ///< LW_x
        Epoch lastWriteEpoch;
        /** tid → 1-based slot in pool_ (0 = no clock yet). */
        std::vector<std::uint32_t> readSlots;
        /** LRDs_x: readers since the last write (duplicates
         * excluded; scanned linearly — it stays small). */
        std::vector<Tid> lrds;
    };

    /** R_{t,x}, pool-allocated on a thread's first read of x. */
    ClockT &
    readClock(VarState &v, Tid t)
    {
        const auto idx = static_cast<std::size_t>(t);
        if (v.readSlots.size() <= idx)
            v.readSlots.resize(idx + 1, 0);
        std::uint32_t &slot = v.readSlots[idx];
        if (slot == 0) {
            pool_.emplace_back();
            pool_.back().setArena(arena_);
            slot = static_cast<std::uint32_t>(pool_.size());
        }
        return pool_[slot - 1];
    }

    /** The existing R_{t,x} of a thread in LRDs_x. */
    ClockT &
    readClockOf(VarState &v, Tid t)
    {
        return pool_[v.readSlots[static_cast<std::size_t>(t)] - 1];
    }

    const EngineConfig *cfg_ = nullptr;
    ScratchArena *arena_ = nullptr;
    std::vector<VarState> vars_;
    /** Pooled R_{t,x} store: deque growth never moves elements, so
     * references handed out by readClock stay valid for the run. */
    std::deque<ClockT> pool_;
};

/** Algorithm 5: the driver instantiated with the MAZ rules. */
template <typename ClockT>
using MazEngine = AnalysisDriver<ClockT, MazPolicy>;

} // namespace tc

#endif // TC_ANALYSIS_MAZ_ENGINE_HH
