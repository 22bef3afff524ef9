/**
 * @file
 * Work accounting for the paper's §4 optimality study.
 *
 * - vtWork: number of vector-time entries whose *value* changed by
 *   increments, joins and lock copies. This is VTWork(σ) when summed
 *   over a run — independent of the data structure (the tests assert
 *   VC and TC runs agree on static-membership traces). Per-variable
 *   copies (copyCheckMonotone) count 0 whether they share or copy:
 *   their entries are a thread clock's, and whether a copy shares
 *   depends on the clock type (tree clocks share at every width,
 *   vector clocks from 128 entries), so any other rule would tell
 *   the two structures apart.
 * - dsWork: number of entries the data structure touched. For vector
 *   clocks this is Θ(k) per join/copy (VCWork); for tree clocks it is
 *   the traversal iterations plus updated nodes (TCWork), which
 *   Theorem 1 bounds by 3·VTWork for HB. A shared copy counts 1 on
 *   both, and freezing a source for sharing counts nothing: the
 *   accounting a resumed run, whose restored clocks share nothing,
 *   reproduces.
 *
 * SHB and MAZ counters in snapshots written before per-variable
 * clocks shared were accumulated with those copies counted as
 * copies (docs/TRACE_FORMAT.md).
 */

#ifndef TC_CORE_WORK_COUNTERS_HH
#define TC_CORE_WORK_COUNTERS_HH

#include <cstdint>

#include "core/serial.hh"

namespace tc {

/** Accumulated operation/work statistics for the clocks of one
 * ScratchArena, whose `counters` points here (scratch_arena.hh). */
struct WorkCounters
{
    std::uint64_t vtWork = 0;   ///< entries whose value changed
    std::uint64_t dsWork = 0;   ///< entries touched by the DS

    std::uint64_t increments = 0;
    std::uint64_t joins = 0;
    std::uint64_t copies = 0;
    /** CopyCheckMonotone calls whose O(1) monotone test failed (the
     * SHB write-write race witness; tree clocks only), whether they
     * then deep-copied or shared. */
    std::uint64_t deepCopies = 0;
    /** Safety-net deep copies in MonotoneCopy (see TreeClock docs);
     * must stay 0 under HB/SHB/MAZ usage. */
    std::uint64_t fallbackCopies = 0;

    /** @name Resident clock footprint (dynamic membership)
     *
     * Bytes currently held by clock payload arrays attributed to
     * this counter set, and the high-water mark. Clocks account on
     * growth and on explicit release() — never in destructors, so
     * moves and scope exits cannot double-count. A clock that shares
     * a frozen version (frozen_pool.hh) holds no records yet counts
     * the copy it stands for, and the versions are not counted: the
     * gauge is what the clocks would hold had every copy copied,
     * which a resumed run, whose restored clocks share nothing,
     * reproduces. The memory sharing saves shows in perfbench's
     * `peak_rss_mb`, not here. With thread lifecycle + reclamation
     * the peak tracks *live* threads, not total-ever-created; that
     * boundedness is what the pool-workload bench measures.
     * @{ */
    std::uint64_t clockBytes = 0;     ///< currently resident
    std::uint64_t clockBytesPeak = 0; ///< high-water mark

    void
    addClockBytes(std::uint64_t n)
    {
        clockBytes += n;
        if (clockBytes > clockBytesPeak)
            clockBytesPeak = clockBytes;
    }

    void
    subClockBytes(std::uint64_t n)
    {
        clockBytes = n > clockBytes ? 0 : clockBytes - n;
    }
    /** @} */

    void
    reset()
    {
        *this = WorkCounters{};
    }

    /** @name Checkpoint serialization (core/serial.hh) @{ */
    void
    serialize(ByteSink &out) const
    {
        out.putU64(vtWork);
        out.putU64(dsWork);
        out.putU64(increments);
        out.putU64(joins);
        out.putU64(copies);
        out.putU64(deepCopies);
        out.putU64(fallbackCopies);
        out.putU64(clockBytes);
        out.putU64(clockBytesPeak);
    }

    bool
    deserialize(ByteSource &in)
    {
        return in.getU64(vtWork) && in.getU64(dsWork) &&
               in.getU64(increments) && in.getU64(joins) &&
               in.getU64(copies) && in.getU64(deepCopies) &&
               in.getU64(fallbackCopies) && in.getU64(clockBytes) &&
               in.getU64(clockBytesPeak);
    }

    /** Pre-lifecycle layout (seven fields, no clock-byte pair) —
     * used when restoring snapshots written before the format bump.
     * The byte counters read as zero here: restored clocks are
     * already full size and never regrow, so
     * AnalysisDriver::restoreState() sets the resident figure to the
     * bytes they credit on load and restarts the peak there. */
    bool
    deserializeLegacy(ByteSource &in)
    {
        clockBytes = 0;
        clockBytesPeak = 0;
        return in.getU64(vtWork) && in.getU64(dsWork) &&
               in.getU64(increments) && in.getU64(joins) &&
               in.getU64(copies) && in.getU64(deepCopies) &&
               in.getU64(fallbackCopies);
    }
    /** @} */

    /** DSWork / VTWork; the paper's Figures 8–9 plot these ratios. */
    double
    workRatio() const
    {
        return vtWork == 0
                   ? 0.0
                   : static_cast<double>(dsWork) /
                         static_cast<double>(vtWork);
    }
};

} // namespace tc

#endif // TC_CORE_WORK_COUNTERS_HH
