/**
 * @file
 * The tree clock data structure (paper §3, Algorithm 2).
 *
 * A tree clock stores the same vector time as a vector clock, but as
 * a rooted tree whose structure remembers how times were learned
 * transitively. A node is (tid, clk, aclk): clk is the last known
 * local time of tid, aclk is the parent's local time when this node
 * was (re)attached. Children are kept in descending aclk order.
 *
 * Join and MonotoneCopy exploit two pruning principles (§3.1):
 *  - direct monotonicity: if the operand's node for thread u has not
 *    progressed past what we know, nothing in its subtree has either,
 *    so the traversal skips the whole subtree;
 *  - indirect monotonicity: children are attached in increasing aclk
 *    order over time, so once a non-progressed child's aclk is
 *    already covered by our knowledge of the parent, all remaining
 *    (older) siblings are covered too and the child scan stops.
 *
 * Both routines therefore run in time proportional to the entries
 * that actually change (Theorem 1: total accessed entries over a run
 * are at most 3·VTWork).
 *
 * Implementation follows the paper's §6 notes: "the tree clock data
 * structure is represented as two arrays of length k, the first one
 * encoding the shape of the tree and the second one encoding the
 * integer timestamps as in a standard vector clock". Here both
 * arrays are one: a node record per thread id holds the timestamp
 * next to the shape (so Get is still a single indexed load, Remark
 * 1); the recursive traversals of Algorithm 2 are made iterative
 * with an explicit frame stack.
 *
 * Memory layout (node records). A clock is one std::vector of
 * 20-byte records {clk, aclk, firstChild, nextSib, link} indexed by
 * thread id: one allocation per clock, and a node's fields share a
 * cache line. `link` is the previous sibling, or — for a first
 * child — a negative tag naming the parent (kNoTid for the root,
 * kAbsent for a thread never in the tree). That is all an O(1)
 * unlink needs, so no record stores its parent: the walks keep the
 * operand parents they descend through on a frame stack instead of
 * backtracking through parent pointers. The traversals visit a node
 * and then read or write most of its fields (progress test, aclk
 * cut, navigation, relinking), so one record beats parallel arrays
 * end to end, and growing, resetting or flat-copying a clock is a
 * single resize, fill or copy. Six parallel arrays win only in
 * micro-benchmarks at k ≥ 1024; on the paper's corpus their six
 * allocations per clock and scattered fields lose
 * (docs/ARCHITECTURE.md, Measured verdicts).
 *
 * Join is one pre-order pass over the operand: each progressed node
 * is unlinked and relinked under its operand parent as it is met,
 * after the siblings relinked before it, so children keep the
 * operand's descending-aclk order. Each level of the walk (and each
 * frame) keeps the parent's pre-join time for the indirect cut,
 * since the parent's record is already updated by then.
 *
 * Dense copies. MonotoneCopy — the lock copy — gathers the operand's
 * progressed nodes, each with its operand parent, and only then
 * decides how to move them. When more than half of the clock's width
 * (kDenseCopyDivisor) would be transplanted, relinking node by node
 * costs more than copying every record, so the copy finishes flat
 * with deepCopy (dsWork = examined + width, still within ~3× the
 * entries moved). Sparse copies — HB's lock copies, the case the
 * paper targets — keep the O(changed) relink.
 *
 * Shared copies. copyCheckMonotone is the per-variable copy (SHB's
 * and MAZ's last-write clocks, MAZ's read clocks). Between two
 * content-changing joins a thread clock changes only in its own
 * entry, so instead of copying, the target shares a frozen version
 * of the source's records (frozen_pool.hh, held by the run's
 * ScratchArena) and keeps the source's root time of its own. The
 * source freezes itself — one flat record copy — only on the first
 * share after a join, reset or copy changed it beyond its root; a
 * source that itself shares passes its version on. A sharing clock
 * frees its records and holds only a counted reference to the
 * version: every read but the root's goes to the version, including
 * its operand side of a join, and any mutation but increment takes
 * records of its own first. Serialized, it is the standalone clock a
 * copy would have left. Tree clocks share at every width; only a
 * source narrower than the target, an empty one and clocks without a
 * common arena are copied as the paper does. Either way
 * copyCheckMonotone counts one copy with vtWork 0 — its entries are
 * the source's — and a share dsWork 1: the accounting a resumed run,
 * whose restored clocks share nothing, reproduces. A failed O(1)
 * monotone test still counts deepCopies.
 *
 * Value and wiring. A clock's state is its records and its root;
 * everything it shares with the other clocks of a run — the walk
 * scratch, the frozen versions, the work counters and the external-id
 * map — lives in the run's ScratchArena (scratch_arena.hh), which
 * setArena() attaches through one pointer. A clock without an arena
 * counts nothing, translates no ids, shares no versions and makes a
 * private walk scratch on its first walk. Either way the buffers
 * are reused across operations, so steady-state join/copy never
 * allocates. There is deliberately no process-global or
 * thread_local scratch: clocks of unrelated analyses share no
 * mutable state.
 */

#ifndef TC_CORE_TREE_CLOCK_HH
#define TC_CORE_TREE_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "support/types.hh"

namespace tc {

/**
 * Tree clock. See the file comment for the data structure overview.
 *
 * Usage discipline (all asserted where affordable):
 *  - Thread clocks are built with the owning constructor; auxiliary
 *    clocks are default constructed and populated by monotoneCopy
 *    (locks) or copyCheckMonotone (last-writes, per-thread reads).
 *  - A thread clock ticks before it learns, as the engines increment
 *    it at each of its events before the event's joins. The aclk cut
 *    relies on it: a clock that joins again at a time another clock
 *    already read makes later joins from it miss entries.
 *  - join(o) requires an initialized clock and must not be handed an
 *    operand claiming to know this clock's root thread beyond the
 *    root's own time ("a thread cannot learn its own future").
 *  - monotoneCopy(o) requires this ⊑ o. Under the HB/SHB/MAZ
 *    algorithms the old root is always repositioned by the traversal
 *    (paper Lemma 5); for ad-hoc call sequences where it is not, we
 *    fall back to a linear deepCopy and count it in
 *    WorkCounters::fallbackCopies, keeping the structure correct for
 *    any monotone copy.
 */
class TreeClock
{
  public:
    /** Auxiliary (empty) clock; Get(t) = 0 for all t. */
    TreeClock() = default;

    /** Init(t): thread clock rooted at (t, 0, ⊥). */
    explicit TreeClock(Tid owner, std::size_t capacity = 0);

    /**
     * Attach the run's clock context (scratch_arena.hh; nullptr
     * detaches), which must outlive this clock. The records held are
     * credited to its counters afresh; growth and release account
     * incrementally from there (never in destructors, so moves
     * cannot double-count).
     */
    void setArena(ScratchArena *arena);

    /**
     * Get(t): time of external thread @p t, 0 when unknown. Without
     * an active id map (the arena's; inactive until the run's first
     * lifecycle event) this is a single indexed load, as for a
     * vector clock (absent threads' records hold time 0); with one
     * it is a record lookup plus a clamp (thread_id_map.hh explains
     * the slot/bias/cap scheme). Structural operations
     * (join/copy/increment) work in slot space either way.
     */
    Clk
    get(Tid t) const
    {
        if (arena_ && arena_->idMap.active()) {
            const ThreadIdMap::Record r = arena_->idMap.lookup(t);
            if (r.slot == kNoTid)
                return 0;
            const Clk raw = rawGet(r.slot);
            if (raw <= r.bias)
                return 0;
            const Clk ext = raw - r.bias;
            return ext > r.cap ? r.cap : ext;
        }
        return rawGet(t);
    }

    /**
     * Time stored for internal slot @p t — the cumulative occupancy
     * time when an id map is active, identical to get() otherwise.
     * This is the coordinate system all structural operations and
     * cross-clock comparisons use.
     */
    Clk
    rawGet(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        const std::vector<Node> &own = nodes_.own();
        if (i < own.size()) [[likely]]
            return own[i].clk;
        return nodes_.sharedTime(t);
    }

    /** Root's thread id (kNoTid when empty). */
    Tid rootTid() const { return root_; }

    /** Root's own time (the owner's local clock for thread clocks). */
    Clk localClk() const { return rawGet(root_); }

    bool empty() const { return root_ == kNoTid; }

    /** Increment(i): bump the root thread's time. */
    void increment(Clk delta);

    /**
     * LessThan of Algorithm 2: O(1) root-entry test, exact whenever
     * the two clocks evolved inside one analysis (by direct
     * monotonicity, Lemma 3, the root entry dominates the tree).
     */
    bool
    lessThanOrEqual(const TreeClock &other) const
    {
        return root_ == kNoTid || localClk() <= other.rawGet(root_);
    }

    /** Exact pointwise comparison for arbitrary clocks. O(k). */
    bool lessThanOrEqualExact(const TreeClock &other) const;

    /** Join of Algorithm 2: this ← this ⊔ other, sublinear. */
    void join(const TreeClock &other);

    /**
     * join() without either pruning principle: no root-only fast
     * path, no direct-monotonicity cut and no indirect (aclk) cut,
     * so the walk descends the whole operand and transplants every
     * progressed node. Required exactly once per slot reuse: right
     * after resetToRoot() the clock's root entry is a synthetic
     * bias, not causally acquired knowledge, so pruning against it
     * could skip operand subtrees hanging under the recycled slot's
     * stale node. One full-descent publish restores the causal
     * premise (the creator covered the previous occupant's final
     * clock, so everything any stale subtree holds is transplanted
     * here), and every later join can prune again.
     */
    void joinFull(const TreeClock &other);

    /**
     * MonotoneCopy of Algorithm 2: this ← other given this ⊑ other,
     * sublinear.
     */
    void monotoneCopy(const TreeClock &other);

    /**
     * CopyCheckMonotone (§5.1), the per-variable copy: O(1)
     * monotonicity test, then — between clocks of one arena, from a
     * non-empty source no narrower than this clock — a share of
     * @p other's frozen records (see the file comment), else a
     * sublinear MonotoneCopy or a linear deep copy. Returns the
     * test's outcome and counts deepCopies when it fails — SHB uses
     * the false case as its write-write race witness.
     */
    bool copyCheckMonotone(const TreeClock &other);

    /** Unconditional linear copy of @p other's tree. */
    void deepCopy(const TreeClock &other);

    /**
     * Recycle this clock object for a new occupant of slot
     * @p owner: drop the whole tree and become the single-node
     * clock (owner, @p start, ⊥). @p start is the occupancy bias —
     * the raw value at which the new thread's time begins (see
     * thread_id_map.hh). With start == 0 this is equivalent to
     * constructing a fresh thread clock. The arena stays attached;
     * no memory is returned (the node array is about to be
     * repopulated).
     */
    void resetToRoot(Tid owner, Clk start);

    /** Materialize the vector time, externally indexed when an id
     * map is active (at least @p min_threads wide). */
    std::vector<Clk> toVector(std::size_t min_threads = 0) const;

    /** Number of addressable thread ids. */
    std::size_t size() const { return nodes_.size(); }

    /** Number of threads present in the tree. O(k). */
    std::size_t nodeCount() const;

    /** @name Introspection (tests, debugging, examples)
     * @{ */
    bool
    hasThread(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return i < size() && records()[i].link != kAbsent;
    }
    /** Parent thread of @p t's node (kNoTid for root/absent); walks
     * back over @p t's older siblings to the first child's tag. */
    Tid parentOf(Tid t) const;
    /** Attachment time of @p t's node (0 for the root). */
    Clk aclkOf(Tid t) const;
    /** Children of @p t's node, in stored (descending aclk) order. */
    std::vector<Tid> childrenOf(Tid t) const;
    /** Identity of the frozen version this clock shares (nullptr
     * while it holds records of its own): equal for clocks sharing
     * one. */
    const void *sharedCopy() const { return nodes_.sharedCopy(); }
    /**
     * Validate all structural invariants: single root, consistent
     * parent-tag/sibling links, descending-aclk child lists,
     * aclk ≤ parent clk, and reachability of every present node.
     * Returns an empty string when healthy, else a diagnostic.
     */
    std::string checkInvariants() const;
    /** Render the tree as an indented multi-line string. */
    std::string toString() const;
    /** @} */

    /** @name Checkpoint serialization (core/serial.hh)
     *
     * serialize() writes the logical clock state: root, tree shape
     * and timestamps, as six columns {clk, aclk, parent, firstChild,
     * nextSib, prevSib}; the parent and prevSib columns are rebuilt
     * from the links. A u64 column before them, once a per-clock
     * fallback-copy count, is written as 0 and skipped on read. The
     * attached arena is wiring, not state; deserialize() leaves it
     * untouched.
     * deserialize() validates sizes, derives each link from the
     * parent and prevSib columns, re-runs checkInvariants() and
     * checks the parent column against the child lists, returning
     * false (and failing @p in, leaving this clock empty) on any
     * malformed input, so a corrupted snapshot can never produce a
     * structurally broken clock. A sharing clock writes the records
     * a copy would have left, so the layout is unchanged and a
     * restored clock shares nothing.
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

    static constexpr const char *kName = "TC";

  private:
    /** One thread's node; the default record is an absent thread. */
    using Node = TreeNode;
    static_assert(sizeof(Node) == 5 * sizeof(Clk),
                  "node records are five packed 32-bit fields");

    /** @name Node links
     * A record's `link` is its previous sibling (≥ 0), kNoTid for
     * the root, kAbsent for a thread never in the tree, or, for a
     * first child, the tag kParentTag - parent (≤ kParentTag).
     * @{ */
    static constexpr Tid kAbsent = Node::kAbsent;
    static constexpr Tid kParentTag = -3;
    static constexpr Tid
    parentTag(Tid parent)
    {
        return kParentTag - parent;
    }
    static constexpr Tid
    taggedParent(Tid link)
    {
        return kParentTag - link;
    }
    /** Widest clock whose tags fit a Tid: its last slot,
     * kMaxWidth - 1, tags to the Tid minimum. ensure() refuses more. */
    static constexpr std::size_t kMaxWidth =
        static_cast<std::size_t>(std::numeric_limits<Tid>::max()) - 1;
    /** @} */

    /**
     * Dense-copy cutover: a monotone copy that would transplant more
     * than width / kDenseCopyDivisor nodes finishes as a flat
     * deepCopy. Measured on the corpus when per-variable clocks
     * still copied: one half tied one quarter on time and touched
     * fewer entries; three quarters and never were slower
     * (docs/ARCHITECTURE.md, Measured verdicts). It now serves lock
     * copies and the per-variable copies into targets wider than
     * their source, which cannot share.
     */
    static constexpr std::size_t kDenseCopyDivisor = 2;

    /** The size() records this clock reads: its own, or the shared
     * frozen version's (whose root record holds a stale time). */
    const Node *records() const { return nodes_.data(); }

    /** Mutable records: a mutation takes its own ones first. */
    Node &
    node(Tid t)
    {
        return nodes_.mut()[static_cast<std::size_t>(t)];
    }
    /** Read records; a sharing clock's root record holds a stale
     * time (use localClk()). */
    const Node &
    node(Tid t) const
    {
        return records()[static_cast<std::size_t>(t)];
    }

    /** Grow to @p n slots; refuses widths past kMaxWidth. */
    void ensure(std::size_t n);
    /** Front-insert @p child under @p parent (pushChild). */
    void pushChild(Tid child, Tid parent);
    /** Insert @p child under @p parent right after its child
     * @p prev (at the front when prev is kNoTid). */
    void insertChildAfter(Tid child, Tid parent, Tid prev);
    /** Unlink @p t (present, not the root) from its parent's child
     * list in O(1) through its link. */
    void detachFromParent(Tid t);

    /** join() (kPrune) and joinFull() (!kPrune): one pre-order pass
     * that relinks each transplanted node as it is met. Without
     * kPrune the walk applies neither cut and descends the whole
     * operand, still transplanting only progressed nodes. */
    template <bool kPrune> void joinImpl(const TreeClock &other);

    /**
     * getUpdatedNodesCopy: collect into @p S (operand pre-order) the
     * nodes a monotone copy transplants, each with its operand
     * parent, plus our old root wherever the walk meets it. The
     * tree is not edited, so the copy can still choose the flat
     * path afterwards; unlinkGathered() detaches S before
     * attachNodes().
     */
    void gatherCopy(const TreeClock &other,
                    std::vector<ScratchArena::Transplant> &S,
                    std::vector<ScratchArena::Frame> &frames,
                    std::uint64_t &examined) const;
    /** Unlink every gathered node from its current parent. */
    void unlinkGathered(const std::vector<ScratchArena::Transplant> &S);
    /** Transplant S (popped in reverse) mirroring other's shape;
     * returns the number of clk entries whose value changed. */
    std::uint64_t
    attachNodes(const TreeClock &other,
                const std::vector<ScratchArena::Transplant> &S);

    /** The checkpoint's parent column, rebuilt from the child
     * lists. */
    std::vector<Tid> parentColumn() const;

    /** Fallback walk scratch for a clock without an arena, made on
     * first use; a copy starts without one. */
    struct OwnScratch
    {
        std::unique_ptr<ScratchArena> arena;

        OwnScratch() = default;
        OwnScratch(const OwnScratch &) {}
        OwnScratch(OwnScratch &&) noexcept = default;
        OwnScratch &operator=(const OwnScratch &) { return *this; }
        OwnScratch &operator=(OwnScratch &&) noexcept = default;
    };

    /** The arena's work-counter sink (nullptr: nothing counts). */
    WorkCounters *
    counters() const
    {
        return arena_ ? arena_->counters : nullptr;
    }

    /** Walk scratch: shared arena when attached, else private. */
    ScratchArena &
    scratch()
    {
        if (arena_)
            return *arena_;
        if (!ownScratch_.arena)
            ownScratch_.arena = std::make_unique<ScratchArena>();
        return *ownScratch_.arena;
    }

    /** Node records indexed by thread id (see the file comment), or
     * the frozen version this clock shares (frozen_pool.hh). */
    SharedRecords<Node> nodes_;

    Tid root_ = kNoTid;
    /** The run's clock context, or nullptr (see setArena). */
    ScratchArena *arena_ = nullptr;
    OwnScratch ownScratch_;
};

} // namespace tc

#endif // TC_CORE_TREE_CLOCK_HH
