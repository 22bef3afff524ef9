/**
 * @file
 * Frozen versions of clock entries, shared by per-variable clocks.
 *
 * Between two content-changing joins a thread clock changes only in
 * its own entry, so the per-variable clocks SHB and MAZ copy from it
 * (last writes, read clocks) can all read one frozen version of its
 * entries and keep just the owner's time of their own. A FrozenPool
 * holds those versions for one analysis (it lives in the analysis'
 * ScratchArena, scratch_arena.hh), and each clock keeps its entries
 * in a SharedRecords, which owns the sharing rules for both clock
 * types:
 *
 *  - A sharing clock holds no records: only a counted reference to
 *    an immutable version, plus the source owner's time. Starting to
 *    share frees the records it held.
 *  - A version is frozen on the first share after the source changed
 *    beyond its own entry; the source remembers it (its pointer,
 *    checked against the version's reference count and source) while
 *    some clock still shares it, and the last sharer to let go frees
 *    it.
 *  - The pool holds versions only: the live ones and a free list
 *    whose storage the next freeze reuses. When the free list runs
 *    out the pool doubles its version count, so a run allocates per
 *    doubling of its live versions, not per clock or per share.
 *  - Versions are never destroyed before the pool, so a stale source
 *    pointer stays safe to read. Each names its pool, which a sharer
 *    hands its reference back to. A version names its source by the
 *    source's record storage, which a clock keeps while its entries
 *    stay the same (moves included) and no two live clocks share; a
 *    clock forgets its version whenever that storage may change, and
 *    clears the version's source when it frees that storage, so a
 *    freed or reused version never passes for the old source's copy.
 *
 * TreeClock and VectorClock own the record layouts, the reads, the
 * work accounting and when a copy shares; SharedRecords owns the
 * storage and the resident-byte gauge credit.
 */

#ifndef TC_CORE_FROZEN_POOL_HH
#define TC_CORE_FROZEN_POOL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/work_counters.hh"
#include "support/assert.hh"
#include "support/types.hh"

namespace tc {

/** Refcounted frozen versions of @p Record arrays; see the file
 * comment. */
template <typename Record>
class FrozenPool
{
  public:
    /** One version: free, or a frozen copy some clocks share. */
    struct Version
    {
        /** The copy, as wide as its source was; the storage is kept
         * for the next freeze once the version is free. */
        std::vector<Record> records;
        /** Clocks sharing the version; 0 when it is free. */
        std::uint32_t refs = 0;
        /** The source's owner (a tree clock's root): its time in
         * the copy goes stale as the source increments, so each
         * sharer keeps its own. */
        Tid owner = kNoTid;
        /** Record storage of the clock frozen into the version
         * (nullptr once that clock freed it). */
        const void *source = nullptr;
        /** The pool holding the version. */
        FrozenPool *pool = nullptr;

        /** Whether this is the live copy of the clock whose record
         * storage is @p storage. */
        bool
        frozenFrom(const void *storage) const
        {
            return refs > 0 && source == storage;
        }
    };

    FrozenPool() = default;
    /** Clocks point into the pool: pin it. */
    FrozenPool(const FrozenPool &) = delete;
    FrozenPool &operator=(const FrozenPool &) = delete;
    /** Every sharer hands its reference back first: the arena
     * outlives its clocks. */
    ~FrozenPool()
    {
        TC_ASSERT(std::all_of(all_.begin(), all_.end(),
                              [](const Version &v) { return v.refs == 0; }),
                  "frozen version still shared when its pool dies");
    }

    /** Freeze @p records (of a source owned by @p owner) into a free
     * version, with one reference taken. */
    Version &
    freeze(const std::vector<Record> &records, Tid owner)
    {
        if (free_.empty())
            grow(records.size());
        Version &v = *free_.back();
        free_.pop_back();
        v.records.assign(records.begin(), records.end());
        v.refs = 1;
        v.owner = owner;
        v.source = records.data();
        return v;
    }

    /** Drop one reference to @p v; the last one frees it. */
    static void
    release(Version &v)
    {
        if (--v.refs == 0)
            v.pool->free_.push_back(&v);
    }

  private:
    /** Double the version count (one to start), each new version
     * free with room for @p width records. */
    void
    grow(std::size_t width)
    {
        const std::size_t add = std::max<std::size_t>(all_.size(), 1);
        free_.reserve(all_.size() + add);
        for (std::size_t i = 0; i < add; i++) {
            Version &v = all_.emplace_back();
            v.pool = this;
            v.records.reserve(width);
            free_.push_back(&v);
        }
    }

    /** Every version made; stable addresses, never shrinks. */
    std::deque<Version> all_;
    /** Free versions, their storage kept for reuse; reserved to
     * hold every version, so release() never allocates. */
    std::vector<Version *> free_;
};

/**
 * A clock's entries: records of its own, or — while it shares — a
 * counted reference to a pool's frozen version plus the source
 * owner's time, and no records at all. It remembers the version it
 * froze of its own records, and keeps the clock's credit on a
 * resident-byte gauge (WorkCounters::clockBytes, sizeof(Record) per
 * record; growth is credited, destruction and moves never touch the
 * gauge). A sharing clock stays credited at the width of the copy it
 * stands for, and versions are not counted: the gauge reads what the
 * clocks would hold had every copy copied, which is what a resumed
 * run, whose restored clocks share nothing, credits. It takes 40
 * bytes, 8 more than a vector and an 8-byte credit: the version
 * pointer, which clocks that never share pay for too. The pool is
 * the arena's, passed to share() and named by the shared version.
 *
 * A copy holds records of its own, even of a sharing one; moving
 * hands the reference over; destruction hands it back to the pool,
 * which must still be alive. Mutating a clock's records takes them
 * back first: take() for the owner's entry, change() for any other.
 */
template <typename Record>
class SharedRecords
{
  public:
    using Pool = FrozenPool<Record>;
    using Version = typename Pool::Version;

    SharedRecords() = default;
    SharedRecords(const SharedRecords &o)
        : own_(o.records()), accounted_(o.accounted_)
    {
    }
    SharedRecords(SharedRecords &&o) noexcept
        : own_(std::move(o.own_)),
          copy_(std::exchange(o.copy_, nullptr)),
          accounted_(std::exchange(o.accounted_, 0)), clk_(o.clk_)
    {
    }
    SharedRecords &
    operator=(const SharedRecords &o)
    {
        if (this != &o)
            *this = SharedRecords(o);
        return *this;
    }
    SharedRecords &
    operator=(SharedRecords &&o) noexcept
    {
        if (this != &o) {
            if (sharing())
                unshare();
            own_ = std::move(o.own_);
            o.own_.clear();
            copy_ = std::exchange(o.copy_, nullptr);
            accounted_ = std::exchange(o.accounted_, 0);
            clk_ = o.clk_;
        }
        return *this;
    }
    ~SharedRecords()
    {
        if (sharing())
            unshare();
    }

    /** Whether the records read are a shared frozen version. */
    bool sharing() const { return own_.empty() && copy_; }

    /** Number of records (a sharing clock's: its version's, which a
     * copy would have left too). */
    std::size_t
    size() const
    {
        return sharing() ? copy_->records.size() : own_.size();
    }

    /** Own records; empty while sharing. */
    const std::vector<Record> &own() const { return own_; }

    /** Own records for a mutation of the owner's entry only: a
     * sharing clock takes back the records a copy leaves first,
     * crediting them to @p c. Resize them through grow() only. */
    std::vector<Record> &
    take(WorkCounters *c)
    {
        if (sharing()) [[unlikely]]
            materialize(c);
        return own_;
    }

    /** take() for a mutation beyond the owner's entry, which makes
     * the frozen version of the records no longer this clock's. */
    std::vector<Record> &
    change(WorkCounters *c)
    {
        take(c);
        copy_ = nullptr;
        return own_;
    }

    /** Own records for mutation, once take() made them own. */
    std::vector<Record> &
    mut()
    {
        TC_ASSERT(!sharing(), "mutating shared records");
        return own_;
    }

    /** The size() records read: own ones, or the shared version's,
     * whose owner record holds a stale time (sharedTime()). */
    const Record *
    data() const
    {
        return sharing() ? copy_->records.data() : own_.data();
    }

    /** Time of entry @p t past the own records: the shared version's,
     * or the source owner's time kept here; 0 when not sharing. */
    Clk
    sharedTime(Tid t) const
    {
        if (!sharing())
            return 0;
        if (t == copy_->owner)
            return clk_;
        const auto i = static_cast<std::size_t>(t);
        return i < copy_->records.size() ? timeOf(copy_->records[i]) : 0;
    }

    /** Sharing: the source's owner, whose time sharedTime() keeps
     * apart from the version. */
    Tid sharedOwner() const { return copy_->owner; }

    /** Sharing: advance the owner's time, the one entry a sharing
     * clock keeps of its own. */
    void bumpSharedTime(Clk delta) { clk_ += delta; }

    /** Identity of the shared version (nullptr while not sharing). */
    const void *
    sharedCopy() const
    {
        return sharing() ? copy_ : nullptr;
    }

    /** The records a standalone clock with this time holds. */
    std::vector<Record>
    records() const
    {
        if (!sharing())
            return own_;
        std::vector<Record> out = copy_->records;
        const auto o = static_cast<std::size_t>(copy_->owner);
        if (copy_->owner != kNoTid && o < out.size())
            timeOf(out[o]) = clk_;
        return out;
    }

    /** After take(): entries beyond the owner's changed after all. */
    void
    forget()
    {
        TC_ASSERT(!sharing(), "forgetting a shared version");
        copy_ = nullptr;
    }

    /** Grow own records to @p n (new ones default), crediting @p c.
     * Storage may move, so the frozen version is forgotten. */
    void
    grow(std::size_t n, WorkCounters *c)
    {
        if (take(c).size() < n) {
            own_.resize(n);
            copy_ = nullptr;
            credit(c);
        }
    }

    /** Replace own records with @p records (a restore), crediting
     * growth to @p c. */
    void
    assign(std::vector<Record> records, WorkCounters *c)
    {
        // Forget before own_ may empty, which would read as sharing.
        change(c) = std::move(records);
        credit(c);
    }

    /** Free every record and un-credit them from @p c. */
    void
    release(WorkCounters *c)
    {
        if (sharing())
            unshare();
        freeOwn();
        if (c)
            c->subClockBytes(accounted_ * sizeof(Record));
        accounted_ = 0;
    }

    /** Move to another arena: a sharing clock takes its records back
     * (into sink @p from), the version in the old pool is forgotten,
     * and the records held are credited to sink @p to afresh. */
    void
    rewire(WorkCounters *from, WorkCounters *to)
    {
        if (sharing())
            materialize(from);
        copy_ = nullptr;
        accounted_ = 0;
        credit(to);
    }

    /** Whether share(@p src) may share, given one pool: a source
     * with records, no narrower than this clock (a copy would keep
     * the wider width). */
    bool
    canShare(const SharedRecords &src) const
    {
        const std::size_t n = src.size();
        return n != 0 && size() <= n && &src != this;
    }

    /**
     * copyCheckMonotone's share: read @p src's entries from now on,
     * keeping its owner's (@p src_owner) time, through the arena's
     * @p pool. A sharing source passes on its version; a plain one
     * hands out the version it remembers while that is still its
     * live copy, else freezes its records now and remembers that.
     * This clock frees the records it held, and stays credited to
     * @p c at the width of the copy it stands for.
     */
    void
    share(const SharedRecords &src, Tid src_owner, Pool &pool,
          WorkCounters *c)
    {
        Version *next = nullptr;
        Clk clk = 0;
        if (src.sharing()) {
            next = src.copy_;
            clk = src.clk_;
        } else {
            const auto o = static_cast<std::size_t>(src_owner);
            if (src_owner != kNoTid && o < src.own_.size())
                clk = timeOf(src.own_[o]);
            if (src.copy_ && src.copy_->frozenFrom(src.own_.data()))
                next = src.copy_;
        }
        if (!sharing())
            freeOwn();
        if (next) {
            if (next != copy_) {
                next->refs++;
                if (copy_)
                    Pool::release(*copy_);
            }
        } else {
            // Release first: this clock's old version may be the
            // free one the freeze reuses.
            if (copy_)
                Pool::release(*copy_);
            next = &pool.freeze(src.own_, src_owner);
            src.copy_ = next;
        }
        copy_ = next;
        clk_ = clk;
        credit(c);
    }

  private:
    static Clk &
    timeOf(Record &r)
    {
        if constexpr (std::is_same_v<Record, Clk>)
            return r;
        else
            return r.clk;
    }
    static Clk
    timeOf(const Record &r)
    {
        if constexpr (std::is_same_v<Record, Clk>)
            return r;
        else
            return r.clk;
    }

    /** Credit growth of size() past what @p c holds for this clock. */
    void
    credit(WorkCounters *c)
    {
        if (!c)
            return;
        const auto now = static_cast<std::uint32_t>(size());
        if (now > accounted_) {
            c->addClockBytes(std::uint64_t{now - accounted_} *
                             sizeof(Record));
            accounted_ = now;
        }
    }

    /** Stop sharing and hold the records a copy leaves. */
    [[gnu::noinline]] void
    materialize(WorkCounters *c)
    {
        std::vector<Record> own = records();
        unshare();
        own_ = std::move(own);
        credit(c);
    }

    /** Hand the shared version back to its pool. */
    void
    unshare()
    {
        Pool::release(*copy_);
        copy_ = nullptr;
    }

    /** Free own records and forget their frozen version, whose
     * source must not name the freed storage. */
    void
    freeOwn()
    {
        if (copy_ && copy_->source == own_.data())
            copy_->source = nullptr;
        copy_ = nullptr;
        std::vector<Record>().swap(own_);
    }

    /** Own records; empty while sharing. Never emptied while copy_
     * remembers a frozen version of them. */
    std::vector<Record> own_;
    /** With no own records: the version shared, one reference held,
     * or nullptr. Otherwise this clock's own frozen version while
     * Version::frozenFrom(own_.data()) says so. */
    mutable Version *copy_ = nullptr;
    /** Records credited to the counter sink's gauge: own ones, or a
     * sharing clock's copy width (clock widths stay below 2^31). */
    std::uint32_t accounted_ = 0;
    /** Sharing: the source owner's time. */
    Clk clk_ = 0;
};

} // namespace tc

#endif // TC_CORE_FROZEN_POOL_HH
