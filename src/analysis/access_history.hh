/**
 * @file
 * Per-variable access histories for the race-detection analysis.
 *
 * AccessHistory is the FastTrack-style adaptive state: the last write
 * as an epoch, and reads as a single epoch while one suffices
 * (reads totally ordered so far), promoted to a flat per-thread
 * vector once reads become concurrent.
 */

#ifndef TC_ANALYSIS_ACCESS_HISTORY_HH
#define TC_ANALYSIS_ACCESS_HISTORY_HH

#include <vector>

#include "analysis/epoch.hh"
#include "core/serial.hh"
#include "support/types.hh"

namespace tc {

/** FastTrack-style adaptive access history for one variable. */
class AccessHistory
{
  public:
    Epoch lastWrite() const { return lastWrite_; }
    void setLastWrite(Epoch e) { lastWrite_ = e; }

    /**
     * Record a read t@c. While reads stay totally ordered (each new
     * read covers the stored one) a single epoch suffices; otherwise
     * promote to a per-thread vector of size @p num_threads.
     */
    template <typename ClockT>
    void
    recordRead(Tid t, Clk c, const ClockT &clock, Tid num_threads)
    {
        if (!shared_) {
            if (readEpoch_.isNone() || readEpoch_.tid == t ||
                readEpoch_.coveredBy(clock)) {
                readEpoch_ = Epoch(t, c);
                return;
            }
            // Concurrent reads: switch to the shared representation.
            shared_ = true;
            readVec_.assign(static_cast<std::size_t>(num_threads), 0);
            readVec_[static_cast<std::size_t>(readEpoch_.tid)] =
                readEpoch_.clk;
        }
        // Online analyses may grow the thread population after the
        // promotion to shared mode.
        if (readVec_.size() <= static_cast<std::size_t>(t))
            readVec_.resize(static_cast<std::size_t>(t) + 1, 0);
        readVec_[static_cast<std::size_t>(t)] = c;
    }

    /**
     * Invoke @p on_race(Epoch) for every recorded read not covered
     * by @p clock (the read-write race check at a write).
     */
    template <typename ClockT, typename Fn>
    void
    forEachUncoveredRead(const ClockT &clock, Fn &&on_race) const
    {
        if (!shared_) {
            if (!readEpoch_.coveredBy(clock))
                on_race(readEpoch_);
            return;
        }
        for (std::size_t u = 0; u < readVec_.size(); u++) {
            if (readVec_[u] > clock.get(static_cast<Tid>(u)))
                on_race(Epoch(static_cast<Tid>(u), readVec_[u]));
        }
    }

    /** Forget reads (performed after a write, as in FastTrack). */
    void
    clearReads()
    {
        readEpoch_ = Epoch();
        if (shared_) {
            shared_ = false;
            readVec_.clear();
        }
    }

    bool sharedReads() const { return shared_; }

    /**
     * True iff every recorded read is covered by thread @p t's
     * program order alone: no reads, or a single read epoch owned
     * by t. Write paths use it to skip the uncovered-read scan
     * entirely (the same-epoch shortcut).
     */
    bool
    readsOwnedBy(Tid t) const
    {
        return !shared_ && readEpoch_.ownedBy(t);
    }

    /** @name Checkpoint serialization (core/serial.hh) @{ */
    void
    serialize(ByteSink &out) const
    {
        out.putI32(lastWrite_.tid);
        out.putU32(lastWrite_.clk);
        out.putI32(readEpoch_.tid);
        out.putU32(readEpoch_.clk);
        out.putU8(shared_ ? 1 : 0);
        out.putVec(readVec_);
    }

    bool
    deserialize(ByteSource &in)
    {
        Epoch last_write, read_epoch;
        std::uint8_t shared = 0;
        std::vector<Clk> read_vec;
        if (!in.getI32(last_write.tid) ||
            !in.getU32(last_write.clk) ||
            !in.getI32(read_epoch.tid) ||
            !in.getU32(read_epoch.clk) || !in.getU8(shared) ||
            !in.getVec(read_vec))
            return false;
        if (shared > 1 || (shared == 0 && !read_vec.empty()))
            return in.fail();
        lastWrite_ = last_write;
        readEpoch_ = read_epoch;
        shared_ = shared != 0;
        readVec_ = std::move(read_vec);
        return true;
    }
    /** @} */

  private:
    Epoch lastWrite_;
    Epoch readEpoch_;
    bool shared_ = false;
    std::vector<Clk> readVec_;
};

} // namespace tc

#endif // TC_ANALYSIS_ACCESS_HISTORY_HH
