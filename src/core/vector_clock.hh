/**
 * @file
 * The classic flat vector clock (paper §2.2) — the baseline data
 * structure tree clocks are measured against. Join, copy and
 * comparison are Θ(k); get and increment are O(1).
 */

#ifndef TC_CORE_VECTOR_CLOCK_HH
#define TC_CORE_VECTOR_CLOCK_HH

#include <cstddef>
#include <vector>

#include "core/serial.hh"
#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/**
 * Vector clock over dense thread ids. Storage grows lazily to the
 * largest id touched; entries beyond the stored prefix read as 0.
 *
 * A clock may own a thread (set by the owning constructor), in which
 * case increment() bumps the owner's entry. Auxiliary clocks (locks,
 * last-write) are default-constructed and never incremented.
 */
class VectorClock
{
  public:
    /** Auxiliary (ownerless) clock; all entries 0. */
    VectorClock() = default;

    /** Thread clock for @p owner, pre-sized to @p capacity entries. */
    explicit VectorClock(Tid owner, std::size_t capacity = 0);

    /** Attach a work-counter sink (nullptr detaches). Storage
     * already held is credited to the new sink's resident-byte
     * gauge. */
    void
    setCounters(WorkCounters *counters)
    {
        counters_ = counters;
        accounted_ = 0;
        updateAccounting();
    }

    Tid ownerTid() const { return owner_; }

    /** Time of thread @p t (0 when unknown). O(1). */
    Clk
    get(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return i < times_.size() ? times_[i] : 0;
    }

    /** Owner's own time. */
    Clk localClk() const { return get(owner_); }

    /** True when every entry is 0 and no owner was set. */
    bool
    empty() const
    {
        if (owner_ != kNoTid)
            return false;
        for (Clk c : times_)
            if (c != 0)
                return false;
        return true;
    }

    /** Bump the owner's entry by @p delta. */
    void increment(Clk delta);

    /** Pointwise maximum with @p other (the ⊔ of §2.2). Θ(k). */
    void join(const VectorClock &other);

    /** Plain assignment of @p other's vector time. Θ(k). */
    void copyFrom(const VectorClock &other);

    /**
     * For vector clocks a monotone copy has no cheaper
     * implementation than a plain copy; provided so engines can be
     * written against one clock interface.
     */
    void monotoneCopy(const VectorClock &other) { copyFrom(other); }

    /** Ditto (SHB's CopyCheckMonotone, §5.1). */
    void copyCheckMonotone(const VectorClock &other)
    {
        copyFrom(other);
    }

    /** Ditto (TreeClock's linear fallback; a flat copy already is
     * one). */
    void deepCopy(const VectorClock &other) { copyFrom(other); }

    /** True iff this ⊑ other pointwise. Θ(k). */
    bool lessThanOrEqual(const VectorClock &other) const;

    /** Exact comparison (same operation for a vector clock). */
    bool
    lessThanOrEqualExact(const VectorClock &other) const
    {
        return lessThanOrEqual(other);
    }

    /**
     * Materialize the vector time over at least @p min_threads
     * entries.
     */
    std::vector<Clk> toVector(std::size_t min_threads = 0) const;

    /**
     * Retire path: free this clock's storage and un-credit it from
     * the resident-byte gauge. For a flat clock this is all
     * reclamation can do — the entries of a retired thread inside
     * *other* clocks must stay (every live vector still spans the
     * full external id range), which is the structural gap the
     * tree clock's slot recycling closes. The clock reads as all-0
     * afterwards and must not be incremented again.
     */
    void release();

    /** Number of stored entries. */
    std::size_t size() const { return times_.size(); }

    /** @name Checkpoint serialization (core/serial.hh)
     * Logical state only (owner + entries); the counters sink is
     * wiring and survives deserialize(). deserialize() returns
     * false (failing @p in) on malformed input.
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

    static constexpr const char *kName = "VC";

  private:
    void ensure(std::size_t n);

    /** Sync the counter sink's resident-byte gauge with the current
     * entry count (growth-only; release() handles the shrink). */
    void
    updateAccounting()
    {
        if (!counters_)
            return;
        const std::uint64_t now = times_.size() * sizeof(Clk);
        if (now > accounted_) {
            counters_->addClockBytes(now - accounted_);
            accounted_ = now;
        }
    }

    std::vector<Clk> times_;
    Tid owner_ = kNoTid;
    WorkCounters *counters_ = nullptr;
    /** Bytes already credited to counters_ (resident-byte gauge). */
    std::uint64_t accounted_ = 0;
};

} // namespace tc

#endif // TC_CORE_VECTOR_CLOCK_HH
