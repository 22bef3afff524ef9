/**
 * @file
 * Reusable traversal scratch shared by the clocks of one analysis.
 *
 * TreeClock's iterative Join/MonotoneCopy walk the operand tree in
 * pre-order with an explicit frame stack (node records keep no
 * parent pointer to backtrack through), and MonotoneCopy collects
 * the nodes to transplant before deciding how to move them.
 * Allocating those buffers per operation would put malloc on the
 * hottest path of every engine; a process-wide thread_local buffer
 * (the previous design) is allocation-free but couples unrelated
 * clocks through hidden shared-mutable state. Instead, each
 * analysis (engine run, online detector) owns one ScratchArena and
 * attaches it to every clock it creates, so the steady state is
 * allocation-free and concurrent analyses in different OS threads
 * stay fully independent.
 *
 * Ownership rules:
 *  - The arena must outlive every clock holding a pointer to it.
 *    Engines keep the arena next to their clock bank; the online
 *    detector keeps it as a member alongside its clock vectors.
 *  - Copying a clock copies the arena pointer: clocks of one
 *    analysis share one arena by construction.
 *  - Standalone clocks (no setArena call) fall back to a private
 *    per-clock arena — library users need not know arenas exist,
 *    and independent clocks never share traversal state.
 *  - One arena serves one OS thread at a time. Clock operations
 *    never nest (join/copy read the operand without recursing into
 *    another join), so one set of buffers per analysis suffices.
 *
 * The arena also holds the analysis' frozen copies
 * (frozen_pool.hh): copyCheckMonotone shares one between the clocks
 * of one arena, so only clocks attached to the same arena share.
 */

#ifndef TC_CORE_SCRATCH_ARENA_HH
#define TC_CORE_SCRATCH_ARENA_HH

#include <vector>

#include "core/frozen_pool.hh"
#include "support/types.hh"

namespace tc {

/** A tree clock's per-thread node record (tree_clock.hh explains
 * the fields); declared here so the arena can hold frozen copies of
 * them. The default record is an absent thread. */
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

/** Shared traversal scratch; see the file comment for ownership. */
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

    /** Walk stack: the suspended levels, innermost last. A walk
     * suspends fewer levels than the operand has nodes, so walks
     * reserve the operand's width: the stack grows with clock
     * width, never with the length of a run. */
    std::vector<Frame> frames;
    /** MonotoneCopy's gathered nodes, in operand pre-order. */
    std::vector<Transplant> gathered;

    /** Frozen tree-clock records shared by per-variable clocks. */
    FrozenPool<TreeNode> treeFrozen;
    /** Frozen vector-clock entries shared by per-variable clocks. */
    FrozenPool<Clk> vectorFrozen;
};

} // namespace tc

#endif // TC_CORE_SCRATCH_ARENA_HH
