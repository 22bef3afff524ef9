/**
 * @file
 * Frozen copies of clock entries, shared by per-variable clocks.
 *
 * Between two content-changing joins a thread clock changes only in
 * its own entry, so the per-variable clocks SHB and MAZ copy from it
 * (last writes, read clocks) can all read one frozen copy of its
 * entries and keep just the owner's time of their own. A FrozenPool
 * holds those copies for one analysis (it lives in the analysis'
 * ScratchArena, scratch_arena.hh), and each clock keeps its entries
 * in a SharedRecords, which owns the sharing rules for both clock
 * types:
 *
 *  - A copy is taken into a free buffer on the first share after
 *    the source changed beyond its own entry; the source remembers
 *    it while some clock still shares it (its pointer, checked
 *    against the buffer's reference count and source).
 *  - A clock adds one buffer when it starts sharing (its own storage
 *    when it has any, else a fresh one as wide as the source) and
 *    drops one when it stops. Live copies are shared by at least one
 *    clock each, so the pool always holds a free buffer when a new
 *    copy is needed, and its buffers never outnumber the sharing
 *    clocks.
 *  - Buffer records are never destroyed before the pool, so a stale
 *    source pointer stays safe to read. Each names its pool, which
 *    a sharer hands its share back to. A buffer names its source by
 *    the source's record storage, which a clock keeps while its
 *    entries stay the same (moves included) and no two live clocks
 *    share; a clock forgets its copy whenever that storage may
 *    change, so a freed or reused buffer never passes for the old
 *    source's copy.
 *
 * TreeClock and VectorClock own the record layouts, the reads and
 * the work accounting; SharedRecords owns the storage and the
 * resident-byte gauge credit.
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

/**
 * copyCheckMonotone shares only a source whose entries take at least
 * this many bytes (26 tree-clock slots, 128 vector-clock entries);
 * narrower ones it copies. Each sharing clock adds a buffer record
 * to the pool (56 bytes) besides its share of the copies, which
 * outweighs copying a few hundred bytes: sharing every copy raised
 * the peak RSS of perfbench's six-way fan-out by 25% on the ingest
 * workload (8 threads) and by 7% on the fanout workload (64
 * threads), on a 4-vCPU Intel Xeon VM, when sharing state took
 * about 80 bytes per clock.
 */
inline constexpr std::size_t kShareMinBytes = 512;

/** Shared frozen copies of @p Record arrays; see the file comment. */
template <typename Record>
class FrozenPool
{
  public:
    /** One buffer, free or holding a frozen copy. */
    struct Frozen
    {
        /** Storage; the first `width` records hold the copy. It
         * grows to the widest copy it held and never shrinks. */
        std::vector<Record> records;
        /** Width of the source when the copy was taken. */
        std::uint32_t width = 0;
        /** Clocks sharing the copy; 0 when the buffer is free. */
        std::uint32_t refs = 0;
        /** The source's owner (a tree clock's root): its time in
         * the copy goes stale as the source increments, so each
         * sharer keeps its own. */
        Tid owner = kNoTid;
        /** Record storage of the clock frozen into the buffer. */
        const void *source = nullptr;
        /** The pool holding the buffer. */
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

    /**
     * A clock starts sharing: its @p own records become one more
     * buffer, or a fresh one of @p width records when it holds none.
     * Returns the records newly allocated.
     */
    std::size_t
    addBuffer(std::vector<Record> &own, std::size_t width)
    {
        Frozen *f;
        if (spare_.empty()) {
            all_.emplace_back();
            f = &all_.back();
            f->pool = this;
        } else {
            f = spare_.back();
            spare_.pop_back();
        }
        const std::size_t fresh = own.empty() ? width : 0;
        f->records = own.empty() ? std::vector<Record>(width)
                                 : std::exchange(own, {});
        f->width = 0;
        free_.push_back(f);
        return fresh;
    }

    /** A clock stops sharing: remove one free buffer and free its
     * storage; returns the records it held. */
    std::size_t
    dropBuffer()
    {
        TC_CHECK(!free_.empty(), "frozen pool has no free buffer");
        Frozen *f = free_.back();
        free_.pop_back();
        const std::size_t n = f->records.size();
        std::vector<Record>().swap(f->records);
        spare_.push_back(f);
        return n;
    }

    /** Freeze @p records (of a source owned by @p owner) into a free
     * buffer, with one reference taken; @p grown receives the
     * records the buffer grew by. */
    Frozen &
    freeze(const std::vector<Record> &records, Tid owner,
           std::size_t &grown)
    {
        TC_CHECK(!free_.empty(), "frozen pool has no free buffer");
        Frozen &f = *free_.back();
        free_.pop_back();
        const std::size_t n = records.size();
        grown = 0;
        if (f.records.size() < n) {
            grown = n - f.records.size();
            f.records.resize(n);
        }
        std::copy(records.begin(), records.end(), f.records.begin());
        f.width = static_cast<std::uint32_t>(n);
        f.refs = 1;
        f.owner = owner;
        f.source = records.data();
        return f;
    }

    /** Drop one reference; the last one frees the buffer. */
    void
    release(Frozen &f)
    {
        if (--f.refs == 0)
            free_.push_back(&f);
    }

  private:
    /** Every buffer record made; stable addresses, never shrinks. */
    std::deque<Frozen> all_;
    /** Unshared buffers holding storage. */
    std::vector<Frozen *> free_;
    /** Dropped buffer records, storage freed, for reuse. */
    std::vector<Frozen *> spare_;
};

/**
 * A clock's entries: records of its own, or — while it shares, and
 * holds none of its own — a pool's frozen copy plus the source
 * owner's time. It remembers the copy it froze of its own records,
 * and keeps the clock's credit on a resident-byte gauge
 * (WorkCounters::clockBytes, sizeof(Record) per record held; growth
 * is credited, destruction and moves never touch the gauge). It
 * takes 40 bytes, 8 more than a vector and an 8-byte credit: the
 * copy pointer, which clocks that never share pay for too. The pool
 * is the arena's, passed to share() and named by the shared buffer.
 *
 * A copy holds records of its own, even of a sharing one; moving
 * hands the share over; destruction hands it back to the pool, which
 * must still be alive. Mutating a clock's records takes them back
 * first: take() for the owner's entry, change() for any other.
 */
template <typename Record>
class SharedRecords
{
  public:
    using Pool = FrozenPool<Record>;
    using Frozen = typename Pool::Frozen;

    SharedRecords() = default;
    SharedRecords(const SharedRecords &o)
        : own_(o.records()), accounted_(o.accounted_)
    {
        if (o.sharing())
            accounted_ = static_cast<std::uint32_t>(own_.size());
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

    /** Whether the records read are a shared frozen copy. */
    bool sharing() const { return own_.empty() && copy_; }

    /** Number of records (a sharing clock's: its copy's, which a
     * copy would have left too). */
    std::size_t
    size() const
    {
        return sharing() ? copy_->width : own_.size();
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
     * the frozen copy of the records no longer this clock's. */
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

    /** The size() records read: own ones, or the shared copy's,
     * whose owner record holds a stale time (sharedTime()). */
    const Record *
    data() const
    {
        return sharing() ? copy_->records.data() : own_.data();
    }

    /** Time of entry @p t past the own records: the shared copy's,
     * or the source owner's time kept here; 0 when not sharing. */
    Clk
    sharedTime(Tid t) const
    {
        if (!sharing())
            return 0;
        if (t == copy_->owner)
            return clk_;
        const auto i = static_cast<std::size_t>(t);
        return i < copy_->width ? timeOf(copy_->records[i]) : 0;
    }

    /** Sharing: the source's owner, whose time sharedTime() keeps
     * apart from the copy. */
    Tid sharedOwner() const { return copy_->owner; }

    /** Sharing: advance the owner's time, the one entry a sharing
     * clock keeps of its own. */
    void bumpSharedTime(Clk delta) { clk_ += delta; }

    /** Identity of the shared copy (nullptr while not sharing). */
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
        const Record *src = copy_->records.data();
        std::vector<Record> out(src, src + copy_->width);
        const auto o = static_cast<std::size_t>(copy_->owner);
        if (copy_->owner != kNoTid && o < out.size())
            timeOf(out[o]) = clk_;
        return out;
    }

    /** After take(): entries beyond the owner's changed after all. */
    void
    forget()
    {
        TC_ASSERT(!sharing(), "forgetting a shared copy");
        copy_ = nullptr;
    }

    /** Grow own records to @p n (new ones default), crediting @p c.
     * Storage may move, so the frozen copy is forgotten. */
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
            unshare(c);
        copy_ = nullptr;
        if (c)
            c->subClockBytes(accounted_ * sizeof(Record));
        accounted_ = 0;
        std::vector<Record>().swap(own_);
    }

    /** Move to another arena: a sharing clock takes its records back
     * (into sink @p from), the copy in the old pool is forgotten, and
     * the records held are credited to sink @p to afresh. */
    void
    rewire(WorkCounters *from, WorkCounters *to)
    {
        if (sharing())
            materialize(from);
        copy_ = nullptr;
        accounted_ = 0;
        credit(to);
    }

    /** Whether share(@p src) may share, given one pool: a source of
     * at least kShareMinBytes and no narrower than this clock (a copy
     * would keep the wider width). */
    bool
    canShare(const SharedRecords &src) const
    {
        const std::size_t n = src.size();
        return n * sizeof(Record) >= kShareMinBytes && size() <= n &&
               &src != this;
    }

    /**
     * copyCheckMonotone's share: read @p src's entries from now on,
     * keeping its owner's (@p src_owner) time, through the arena's
     * @p pool. A sharing source passes on its copy; a plain one
     * hands out the copy it remembers while that is still its live
     * copy, else freezes its records now and remembers that. Buffers
     * allocated or grown are credited to @p c.
     */
    void
    share(const SharedRecords &src, Tid src_owner, Pool &pool,
          WorkCounters *c)
    {
        std::size_t added = 0;
        if (!sharing()) {
            // The first share since this clock held records of its
            // own: they become its pool buffer (a restored clock's
            // keep their credit), else a fresh one as wide as the
            // source.
            copy_ = nullptr;
            added = pool.addBuffer(own_, src.size());
            accounted_ = 0;
        }
        Frozen *next = nullptr;
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
        if (next) {
            if (next != copy_) {
                next->refs++;
                if (copy_)
                    pool.release(*copy_);
            }
        } else {
            // Release first: this clock's old copy may free the
            // buffer the freeze needs.
            if (copy_)
                pool.release(*copy_);
            std::size_t grown = 0;
            next = &pool.freeze(src.own_, src_owner, grown);
            added += grown;
            src.copy_ = next;
        }
        copy_ = next;
        clk_ = clk;
        if (c && added != 0)
            c->addClockBytes(added * sizeof(Record));
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

    /** Credit own records' growth to @p c. */
    void
    credit(WorkCounters *c)
    {
        if (!c)
            return;
        const auto now = static_cast<std::uint32_t>(own_.size());
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
        unshare(c);
        own_ = std::move(own);
        credit(c);
    }

    /** Drop the shared copy and this clock's buffer, both in the
     * copy's pool; the buffer's bytes leave @p c's gauge if given. */
    void
    unshare(WorkCounters *c = nullptr)
    {
        Pool &pool = *copy_->pool;
        pool.release(*copy_);
        const std::size_t dropped = pool.dropBuffer();
        if (c)
            c->subClockBytes(dropped * sizeof(Record));
        copy_ = nullptr;
    }

    /** Own records; empty while sharing. Never emptied while copy_
     * remembers a frozen copy of them. */
    std::vector<Record> own_;
    /** With no own records: the copy shared, or nullptr. Otherwise
     * this clock's own frozen copy while Frozen::frozenFrom(
     * own_.data()) says so. */
    mutable Frozen *copy_ = nullptr;
    /** Records credited to the counter sink's gauge (clock widths
     * stay below 2^31). */
    std::uint32_t accounted_ = 0;
    /** Sharing: the source owner's time. */
    Clk clk_ = 0;
};

} // namespace tc

#endif // TC_CORE_FROZEN_POOL_HH
