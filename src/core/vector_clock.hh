/**
 * @file
 * The classic flat vector clock (paper §2.2) — the baseline data
 * structure tree clocks are measured against. Join, copy and
 * comparison are Θ(k); get and increment are O(1).
 *
 * monotoneCopy is the lock copy, a flat Θ(k) copy. copyCheckMonotone
 * is the per-variable copy (SHB's and MAZ's last-write clocks, MAZ's
 * read clocks) and, between clocks of one ScratchArena and from a
 * source of at least kShareMinEntries, shares instead of copying,
 * exactly as TreeClock does (tree_clock.hh, "Shared copies"): the
 * target drops its entries and holds a counted reference to a frozen
 * version of the source's (frozen_pool.hh) plus the source owner's
 * time, and the source freezes itself — one flat copy — only on the
 * first share after a join, copy or release changed it beyond its
 * owner's entry (a sharing source passes its version on, with the
 * owner time it keeps). Shared or copied, it counts one copy with
 * vtWork 0, a share dsWork 1; the vector clock has no O(1) monotone
 * test, so it never counts deepCopies.
 *
 * A clock's state is its entries and its owner; its one wiring
 * pointer names the run's ScratchArena (scratch_arena.hh), which
 * holds the frozen copies and the work counters. A vector clock
 * stays externally indexed, so it never reads the arena's id map.
 */

#ifndef TC_CORE_VECTOR_CLOCK_HH
#define TC_CORE_VECTOR_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/frozen_pool.hh"
#include "core/scratch_arena.hh"
#include "core/serial.hh"
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
    /**
     * copyCheckMonotone shares only a source of at least this many
     * entries (512 bytes) and copies narrower ones: a flat copy of a
     * narrow clock costs less than the reads through a version cost
     * the joins that follow. Sharing at every width ran SHB and MAZ
     * on perfbench's ingest workload (8 threads) about 7–8% slower
     * against tree clocks (docs/ARCHITECTURE.md, Measured verdicts).
     * Tree clocks share at every width.
     */
    static constexpr std::size_t kShareMinEntries = 128;

    /** Auxiliary (ownerless) clock; all entries 0. */
    VectorClock() = default;

    /** Thread clock for @p owner, pre-sized to @p capacity entries. */
    explicit VectorClock(Tid owner, std::size_t capacity = 0);

    /** Attach the run's clock context (nullptr detaches): clocks of
     * one arena share frozen copies, and count into its work
     * counters, to which the entries held are credited afresh. The
     * arena must outlive this clock. */
    void
    setArena(ScratchArena *arena)
    {
        if (arena == arena_)
            return;
        times_.rewire(counters(), arena ? arena->counters : nullptr);
        arena_ = arena;
    }

    Tid ownerTid() const { return owner_; }

    /** Time of thread @p t (0 when unknown). O(1). */
    Clk
    get(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        const std::vector<Clk> &own = times_.own();
        if (i < own.size()) [[likely]]
            return own[i];
        return times_.sharedTime(t);
    }

    /** Owner's own time. */
    Clk localClk() const { return get(owner_); }

    /** True when every entry is 0 and no owner was set. */
    bool empty() const;

    /** Bump the owner's entry by @p delta. */
    void increment(Clk delta);

    /** Pointwise maximum with @p other (the ⊔ of §2.2). Θ(k). */
    void join(const VectorClock &other);

    /** Plain assignment of @p other's vector time. Θ(k). */
    void copyFrom(const VectorClock &other);

    /**
     * The lock copy. For vector clocks a monotone copy has no
     * cheaper implementation than a plain copy; provided so engines
     * can be written against one clock interface.
     */
    void monotoneCopy(const VectorClock &other) { copyFrom(other); }

    /** The per-variable copy (SHB's CopyCheckMonotone, §5.1): a
     * share between clocks of one arena from a source of at least
     * kShareMinEntries (see the file comment), else a plain copy. */
    void copyCheckMonotone(const VectorClock &other);

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
    void release() { times_.release(counters()); }

    /** Number of entries (a sharing clock's: the width a copy would
     * have left). */
    std::size_t size() const { return times_.size(); }

    /** Identity of the frozen version this clock shares (nullptr
     * while it holds entries of its own): equal for clocks sharing
     * one. Tests and debugging. */
    const void *sharedCopy() const { return times_.sharedCopy(); }

    /** @name Checkpoint serialization (core/serial.hh)
     * Logical state only (owner + entries; a sharing clock writes
     * the entries a copy would have left); the arena is wiring and
     * survives deserialize(). deserialize()
     * returns false (failing @p in) on malformed input.
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

    static constexpr const char *kName = "VC";

  private:
    /** Take @p other's entries; returns the entries changed. */
    std::uint64_t assignFrom(const VectorClock &other);

    /** The arena's work-counter sink (nullptr: nothing counts). */
    WorkCounters *
    counters() const
    {
        return arena_ ? arena_->counters : nullptr;
    }

    /** Entries by thread id, or the frozen version this clock
     * shares (frozen_pool.hh). */
    SharedRecords<Clk> times_;
    Tid owner_ = kNoTid;
    /** The run's clock context, or nullptr (see setArena). */
    ScratchArena *arena_ = nullptr;
};

} // namespace tc

#endif // TC_CORE_VECTOR_CLOCK_HH
