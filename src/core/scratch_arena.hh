/**
 * @file
 * The clock context of one analysis run. A clock is a value (its
 * records and its root or owner) plus one wiring pointer, to the
 * run's ScratchArena, which holds what the run's clocks share: the
 * walk scratch of TreeClock's iterative Join/MonotoneCopy (a frame
 * stack, as node records keep no parent pointer to backtrack
 * through, and MonotoneCopy's gathered nodes), the frozen versions
 * copyCheckMonotone shares (frozen_pool.hh), the work-counter sink
 * and the external-id map tree clocks translate ids through.
 *
 * Allocating walk buffers per operation would put malloc on the
 * hottest path of every engine; a process-wide thread_local buffer
 * is allocation-free but couples unrelated clocks through hidden
 * shared-mutable state. Instead, each analysis owns one arena and
 * attaches it to every clock it creates with setArena(), so the
 * steady state is allocation-free and concurrent analyses in
 * different OS threads stay fully independent.
 *
 * Ownership rules:
 *  - The arena must outlive every clock holding a pointer to it;
 *    AnalysisDriver declares it before its clock bank.
 *  - Copying a clock copies the arena pointer: clocks of one
 *    analysis share one arena by construction.
 *  - Standalone clocks (no setArena call) count nothing, translate
 *    no ids and share no versions; a tree clock walks with a private
 *    scratch. Library users need not know arenas exist.
 *  - Moving a clock to another arena takes back the records it
 *    shares and credits those it holds to the new arena's counters.
 *  - One arena serves one OS thread at a time. Clock operations
 *    never nest (join/copy read the operand without recursing into
 *    another join), so one set of buffers per analysis suffices.
 */

#ifndef TC_CORE_SCRATCH_ARENA_HH
#define TC_CORE_SCRATCH_ARENA_HH

#include <vector>

#include "core/frozen_pool.hh"
#include "core/thread_id_map.hh"
#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/** A tree clock's per-thread node record (tree_clock.hh explains
 * the fields); declared here so the arena can hold frozen versions
 * of them. The default record is an absent thread. */
struct TreeNode
{
    /** `link` of a thread never in the tree. */
    static constexpr Tid kAbsent = -2;

    Clk clk = 0;             ///< timestamp (Get reads this)
    Clk aclk = 0;            ///< attachment time
    Tid firstChild = kNoTid; ///< head of child list
    Tid nextSib = kNoTid;    ///< next sibling (smaller aclk)
    Tid link = kAbsent;      ///< previous sibling or parent tag
};

/** The run's clock context; see the file comment for ownership. */
struct ScratchArena
{
    /** A level of a pre-order walk over an operand tree, suspended
     * while the walk descends into one of its children. */
    struct Frame
    {
        Tid node;   ///< operand node whose children the level scans
        Clk before; ///< our time of node before the operation
        Tid next;   ///< child to resume at (kNoTid: level done)
        Tid tail;   ///< join: last child relinked under node so far
    };

    /** A node a monotone copy transplants, with its operand parent
     * (kNoTid for the operand root). */
    struct Transplant
    {
        Tid node;
        Tid parent;
    };

    /** Work-accounting sink of every clock of the arena (nullptr:
     * nothing counts); set it before setArena, which credits it. */
    WorkCounters *counters = nullptr;
    /** External-id map; identity until the first lifecycle event. */
    ThreadIdMap idMap;

    /** Walk stack: the suspended levels, innermost last. A walk
     * suspends fewer levels than the operand has nodes, so walks
     * reserve the operand's width: the stack grows with clock
     * width, never with the length of a run. */
    std::vector<Frame> frames;
    /** MonotoneCopy's gathered nodes, in operand pre-order. */
    std::vector<Transplant> gathered;

    /** Frozen tree-clock versions shared by per-variable clocks. */
    FrozenPool<TreeNode> treeFrozen;
    /** Frozen vector-clock versions shared by per-variable clocks. */
    FrozenPool<Clk> vectorFrozen;
};

} // namespace tc

#endif // TC_CORE_SCRATCH_ARENA_HH
