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
 * with an explicit node stack.
 *
 * Memory layout (node records). A clock is one std::vector of
 * 24-byte records {clk, aclk, parent, firstChild, nextSib, prevSib}
 * indexed by thread id: one allocation per clock, and a node's
 * fields share a cache line. The traversals visit a node and then
 * read or write most of its fields (progress test, aclk cut,
 * navigation, relinking), so one record beats six parallel arrays
 * end to end, and growing, resetting or flat-copying a clock is a
 * single resize, fill or copy. Six parallel arrays win only in
 * micro-benchmarks at k ≥ 1024; on the paper's corpus their six
 * allocations per clock and scattered fields lose
 * (docs/ARCHITECTURE.md, Measured verdicts).
 *
 * Dense copies. MonotoneCopy gathers the operand's progressed nodes
 * first and only then decides how to move them. When more than half
 * of the clock's width (kDenseCopyDivisor) would be transplanted,
 * relinking node by node costs more than copying every record, so
 * the copy finishes flat with deepCopy (dsWork = examined + width,
 * still within ~3× the entries moved). Sparse copies — HB's lock
 * copies, the case the paper targets — keep the O(changed) relink.
 * The stale per-variable clocks of SHB and MAZ (last writes, read
 * clocks) are where the flat path pays.
 *
 * Scratch ownership. The traversal stack lives in a ScratchArena
 * (scratch_arena.hh): engines attach one shared arena to all their
 * clocks via setArena(); a clock without an arena uses a private
 * per-instance buffer. Either way the buffer is reused across
 * operations, so steady-state join/copy never allocates. There is
 * deliberately no process-global or thread_local scratch: clocks of
 * unrelated analyses share no mutable state.
 */

#ifndef TC_CORE_TREE_CLOCK_HH
#define TC_CORE_TREE_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/thread_id_map.hh"
#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/**
 * Tree clock. See the file comment for the data structure overview.
 *
 * Usage discipline (all asserted where affordable):
 *  - Thread clocks are built with the owning constructor; auxiliary
 *    clocks (locks, last-writes, per-thread reads) are default
 *    constructed and populated by monotoneCopy/copyCheckMonotone.
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

    /** Attach a work-counter sink (nullptr detaches). Storage
     * already held is credited to the new sink's resident-byte
     * gauge; growth and release account incrementally from there
     * (never in destructors, so moves cannot double-count). */
    void
    setCounters(WorkCounters *counters)
    {
        counters_ = counters;
        accounted_ = 0;
        updateAccounting();
    }

    /**
     * Share a traversal scratch arena (nullptr reverts to the
     * private per-clock buffer). The arena must outlive this clock;
     * see scratch_arena.hh for the ownership rules.
     */
    void setArena(ScratchArena *arena) { arena_ = arena; }

    /**
     * Attach the analysis-wide external-id map (nullptr detaches).
     * While the map is inactive (no lifecycle event yet) every read
     * takes the plain single-load path; once active, get() and
     * toVector() translate external ids through it (thread_id_map.hh
     * explains the slot/bias/cap scheme). The map must outlive this
     * clock; structural operations (join/copy/increment) are
     * unaffected — they work in slot space either way.
     */
    void setIdMap(const ThreadIdMap *map) { idMap_ = map; }

    /**
     * Get(t): time of external thread @p t, 0 when unknown. Without
     * an active id map this is a single indexed load, as for a
     * vector clock (absent threads' records hold time 0); with one
     * it is a record lookup plus a clamp.
     */
    Clk
    get(Tid t) const
    {
        if (idMap_ && idMap_->active()) {
            const ThreadIdMap::Record r = idMap_->lookup(t);
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
        return i < nodes_.size() ? nodes_[i].clk : 0;
    }

    /** Root's thread id (kNoTid when empty). */
    Tid rootTid() const { return root_; }

    /** Root's own time (the owner's local clock for thread clocks). */
    Clk
    localClk() const
    {
        return root_ == kNoTid ? 0 : node(root_).clk;
    }

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
     * CopyCheckMonotone (§5.1): O(1) monotonicity test, then either
     * a sublinear MonotoneCopy or a linear deep copy. Returns true
     * when the monotone (cheap) path was taken — SHB uses the false
     * case as its write-read race witness.
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
     * constructing a fresh thread clock. Counters/arena/map wiring
     * is preserved; no memory is returned (the node array is
     * about to be repopulated).
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
        return i < nodes_.size() &&
               (t == root_ || nodes_[i].parent != kAbsent);
    }
    /** Parent thread of @p t's node (kNoTid for root/absent). */
    Tid parentOf(Tid t) const;
    /** Attachment time of @p t's node (0 for the root). */
    Clk aclkOf(Tid t) const;
    /** Children of @p t's node, in stored (descending aclk) order. */
    std::vector<Tid> childrenOf(Tid t) const;
    /** Safety-net deep copies taken by this instance (see class
     * comment); 0 under algorithm usage. */
    std::uint64_t fallbackCopies() const { return fallbackCopies_; }
    /**
     * Validate all structural invariants: single root, consistent
     * parent/sibling links, descending-aclk child lists,
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
     * and timestamps. The attached counters, arena and id map are
     * wiring, not state; deserialize() leaves them untouched.
     * deserialize() validates sizes and re-runs checkInvariants(),
     * returning false (and failing @p in, leaving this clock empty)
     * on any malformed input, so a corrupted snapshot can never
     * produce a structurally broken clock.
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

    static constexpr const char *kName = "TC";

  private:
    /** Sentinel parent for threads that were never in the tree. */
    static constexpr Tid kAbsent = -2;

    /**
     * Dense-copy cutover: a monotone copy that would transplant more
     * than width / kDenseCopyDivisor nodes finishes as a flat
     * deepCopy. On the corpus one half ties one quarter on time and
     * touches fewer entries; three quarters and never are slower
     * (docs/ARCHITECTURE.md, Measured verdicts).
     */
    static constexpr std::size_t kDenseCopyDivisor = 2;

    /** One thread's node; the default record is an absent thread. */
    struct Node
    {
        Clk clk = 0;             ///< timestamp (Get reads this)
        Clk aclk = 0;            ///< attachment time
        Tid parent = kAbsent;    ///< kAbsent = never present
        Tid firstChild = kNoTid; ///< head of child list
        Tid nextSib = kNoTid;    ///< next sibling (smaller aclk)
        Tid prevSib = kNoTid;    ///< previous sibling
    };
    static_assert(sizeof(Node) == 6 * sizeof(Clk),
                  "node records are six packed 32-bit fields");

    Node &node(Tid t) { return nodes_[static_cast<std::size_t>(t)]; }
    const Node &
    node(Tid t) const
    {
        return nodes_[static_cast<std::size_t>(t)];
    }

    void ensure(std::size_t n);
    /** Front-insert @p child under @p parent (pushChild). */
    void pushChild(Tid child, Tid parent);
    /** Unlink @p t from its parent's child list. */
    void detachFromParent(Tid t);

    /** join() (kPrune) and joinFull() (!kPrune). */
    template <bool kPrune> void joinImpl(const TreeClock &other);

    /**
     * getUpdatedNodesJoin / getUpdatedNodesCopy: collect into @p S
     * (pre-order) the operand's nodes to transplant. The tree is not
     * edited, so a copy can still choose the flat path afterwards;
     * unlinkGathered() detaches S before attachNodes(). @p z_tid is
     * the old root for copies (kNoTid for joins). Without kPrune
     * (joinFull) the walk applies neither cut and descends the whole
     * operand.
     */
    template <bool kPrune>
    void gatherUpdated(const TreeClock &other, std::vector<Tid> &S,
                       bool is_copy, Tid z_tid,
                       std::uint64_t &examined) const;
    /** Unlink every gathered node from its current parent. */
    void unlinkGathered(const std::vector<Tid> &S);
    /** Transplant S (popped in reverse) mirroring other's shape;
     * returns the number of clk entries whose value changed. */
    std::uint64_t attachNodes(const TreeClock &other,
                              std::vector<Tid> &S);

    /** Traversal stack: shared arena when attached, else private. */
    std::vector<Tid> &
    scratch()
    {
        return arena_ ? arena_->stack : ownScratch_;
    }

    /** Bytes per addressable slot: one node record. */
    static constexpr std::uint64_t kBytesPerSlot = sizeof(Node);

    /** Sync the counter sink's resident-byte gauge with the current
     * array size (growth-only; shrinking never happens). */
    void
    updateAccounting()
    {
        if (!counters_)
            return;
        const std::uint64_t now = nodes_.size() * kBytesPerSlot;
        if (now > accounted_) {
            counters_->addClockBytes(now - accounted_);
            accounted_ = now;
        }
    }

    /** Node records indexed by thread id (see the file comment). */
    std::vector<Node> nodes_;

    Tid root_ = kNoTid;
    WorkCounters *counters_ = nullptr;
    ScratchArena *arena_ = nullptr;
    const ThreadIdMap *idMap_ = nullptr;
    std::uint64_t fallbackCopies_ = 0;
    /** Bytes already credited to counters_ (resident-byte gauge). */
    std::uint64_t accounted_ = 0;
    /** Fallback traversal stack when no arena is attached. */
    std::vector<Tid> ownScratch_;
};

} // namespace tc

#endif // TC_CORE_TREE_CLOCK_HH
