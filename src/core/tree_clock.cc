#include "core/tree_clock.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

// Growing a vector of clocks must move them: a copy would make a
// sharing clock take records of its own.
static_assert(std::is_nothrow_move_constructible_v<TreeClock>);
// Header bytes cost time: 16 more (48 -> 64) made HB on vector clocks
// 5-10% slower with nothing shared (perfbench, 4-vCPU Intel Xeon VM).
static_assert(sizeof(TreeClock) <= 64);

TreeClock::TreeClock(Tid owner, std::size_t capacity)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    ensure(std::max<std::size_t>(capacity,
                                 static_cast<std::size_t>(owner) + 1));
    root_ = owner;
    node(owner).link = kNoTid;
}

void
TreeClock::setArena(ScratchArena *arena)
{
    if (arena == arena_)
        return;
    nodes_.rewire(counters(), arena ? arena->counters : nullptr);
    arena_ = arena;
}

void
TreeClock::ensure(std::size_t n)
{
    if (nodes_.own().size() < n) {
        TC_CHECK(n <= kMaxWidth,
                 "tree clock wider than its parent tags can encode");
        nodes_.grow(n, counters());
    }
}

void
TreeClock::resetToRoot(Tid owner, Clk start)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    std::vector<Node> &own = nodes_.change(counters());
    std::fill(own.begin(), own.end(), Node{});
    ensure(static_cast<std::size_t>(owner) + 1);
    root_ = owner;
    Node &r = node(owner);
    r.link = kNoTid;
    r.clk = start;
}

void
TreeClock::increment(Clk delta)
{
    TC_CHECK(root_ != kNoTid,
             "increment() requires an initialized thread clock");
    // Only the root's time moves, so a frozen version stays valid.
    if (nodes_.sharing()) [[unlikely]]
        nodes_.bumpSharedTime(delta);
    else
        node(root_).clk += delta;
    if (WorkCounters *const counters = this->counters()) {
        counters->increments++;
        counters->vtWork++;
        counters->dsWork++;
    }
}

bool
TreeClock::lessThanOrEqualExact(const TreeClock &other) const
{
    for (std::size_t i = 0; i < size(); i++) {
        const auto t = static_cast<Tid>(i);
        if (rawGet(t) > other.rawGet(t))
            return false;
    }
    return true;
}

void
TreeClock::pushChild(Tid child, Tid parent)
{
    Node &c = node(child);
    Node &p = node(parent);
    c.link = parentTag(parent);
    const Tid head = p.firstChild;
    c.nextSib = head;
    if (head != kNoTid)
        node(head).link = child;
    p.firstChild = child;
}

void
TreeClock::insertChildAfter(Tid child, Tid parent, Tid prev)
{
    if (prev == kNoTid) {
        pushChild(child, parent);
        return;
    }
    Node &c = node(child);
    Node &p = node(prev);
    c.link = prev;
    const Tid next = p.nextSib;
    c.nextSib = next;
    if (next != kNoTid)
        node(next).link = child;
    p.nextSib = child;
}

void
TreeClock::detachFromParent(Tid t)
{
    const Node &n = node(t);
    const Tid link = n.link;
    const Tid next = n.nextSib;
    TC_ASSERT(link >= 0 || link <= kParentTag,
              "detaching the root or an absent node");
    if (link >= 0) {
        node(link).nextSib = next;
    } else {
        node(taggedParent(link)).firstChild = next;
    }
    // The next sibling inherits the link: our predecessor, or the
    // parent's tag when it becomes the first child.
    if (next != kNoTid)
        node(next).link = link;
}

void
TreeClock::gatherCopy(const TreeClock &other,
                      std::vector<ScratchArena::Transplant> &S,
                      std::vector<ScratchArena::Frame> &frames,
                      std::uint64_t &examined) const
{
    // Iterative rendering of getUpdatedNodesCopy (Algorithm 2,
    // lines 62-69). S is filled in pre-order; attachNodes pops it
    // from the back, which attaches later siblings first so the
    // front-insert of pushChild restores the operand's
    // (descending-aclk) child order. The walk reads only our
    // timestamps, never our links, so unlinking S afterwards
    // (unlinkGathered) is equivalent to unlinking each node as it is
    // met.
    const Node *theirs = other.records();
    const Node *mine = nodes_.own().data();

    // The level being scanned lives in locals: its operand parent,
    // our time of that parent, and the child at hand. Descending
    // suspends it on the frame stack, to resume at the next sibling.
    Tid parent = other.root_;
    Clk parent_before = mine[static_cast<std::size_t>(parent)].clk;
    Tid cur = theirs[static_cast<std::size_t>(parent)].firstChild;
    S.push_back({parent, kNoTid});
    frames.clear();
    frames.reserve(other.size());
    std::uint64_t scans = 0;
    while (true) {
        if (cur == kNoTid) {
            // Level exhausted or cut: resume the suspended one.
            if (frames.empty())
                break;
            const ScratchArena::Frame &f = frames.back();
            parent = f.node;
            parent_before = f.before;
            cur = f.next;
            frames.pop_back();
            continue;
        }
        scans++;
        const Node &o = theirs[static_cast<std::size_t>(cur)];
        const Clk before = mine[static_cast<std::size_t>(cur)].clk;
        if (before < o.clk) {
            // Direct monotonicity: descend only into progressed
            // subtrees.
            S.push_back({cur, parent});
            if (o.firstChild != kNoTid) {
                frames.push_back(
                    {parent, parent_before, o.nextSib, kNoTid});
                parent = cur;
                parent_before = before;
                cur = o.firstChild;
            } else {
                cur = o.nextSib;
            }
            continue;
        }
        if (cur == root_) {
            // The copy target's old root must be repositioned even
            // though its time has not progressed (line 67).
            S.push_back({cur, parent});
        }
        // Indirect monotonicity: siblings further down the list were
        // attached no later than cur, so once our view of the parent
        // covers cur's attachment it covers them too (line 68).
        cur = o.aclk <= parent_before ? kNoTid : o.nextSib;
    }
    examined += scans;
}

void
TreeClock::unlinkGathered(
    const std::vector<ScratchArena::Transplant> &S)
{
    for (const ScratchArena::Transplant &g : S) {
        if (g.node != root_ && node(g.node).link != kAbsent)
            detachFromParent(g.node);
    }
}

std::uint64_t
TreeClock::attachNodes(const TreeClock &other,
                       const std::vector<ScratchArena::Transplant> &S)
{
    // Iterate back-to-front: S is in pre-order, so later siblings
    // attach first and pushChild's front insertion restores the
    // operand's child order.
    const Node *theirs = other.records();
    Node *mine = nodes_.mut().data();
    std::uint64_t changed = 0;
    for (std::size_t idx = S.size(); idx-- > 0;) {
        const auto [t, parent] = S[idx];
        const Node &o = theirs[static_cast<std::size_t>(t)];
        Node &m = mine[static_cast<std::size_t>(t)];
        // The operand root's time is localClk(): a sharing operand's
        // root record is stale.
        const Clk clk = parent == kNoTid ? other.localClk() : o.clk;
        changed += m.clk != clk;
        m.clk = clk;
        if (parent != kNoTid) {
            m.aclk = o.aclk;
            pushChild(t, parent);
        }
    }
    return changed;
}

template <bool kPrune>
void
TreeClock::joinImpl(const TreeClock &other)
{
    WorkCounters *const counters = this->counters();
    if (other.root_ == kNoTid) {
        // Nothing to learn from an empty clock; still an operation
        // (vector clocks count it too, over zero stored entries).
        if (counters)
            counters->joins++;
        return;
    }
    TC_CHECK(root_ != kNoTid,
             "join() requires an initialized thread clock");

    const Tid z = other.root_;
    const Clk other_root_clk = other.localClk();
    if (rawGet(z) >= other_root_clk) {
        // Root already covered: by direct monotonicity the whole
        // operand is covered (Algorithm 2, line 18).
        if (counters) {
            counters->joins++;
            counters->dsWork++;
        }
        return;
    }
    TC_CHECK(other.rawGet(root_) <= localClk(),
             "join operand claims to know this thread's future");
    nodes_.change(counters);
    ensure(other.size());

    // Fast path: only the operand's root thread progressed. Its
    // first child is not ahead of us and was attached no later than
    // our knowledge of the root, so by indirect monotonicity the
    // whole remainder is covered; transplant just the root node.
    const Node *theirs = other.records();
    if constexpr (kPrune) {
        const Tid c = theirs[static_cast<std::size_t>(z)].firstChild;
        if (c == kNoTid ||
            (rawGet(c) >= theirs[static_cast<std::size_t>(c)].clk &&
             theirs[static_cast<std::size_t>(c)].aclk <= rawGet(z))) {
            Node &n = node(z);
            if (n.link != kAbsent)
                detachFromParent(z);
            n.clk = other_root_clk;
            n.aclk = localClk();
            pushChild(z, root_);
            if (counters) {
                // Same accounting as the generic path: root compare
                // + children examined (0 or 1) + one transplant.
                counters->joins++;
                counters->vtWork += 1;
                counters->dsWork += 2 + (c != kNoTid);
            }
            return;
        }
    }

    // Iterative getUpdatedNodesJoin + detachNodes + attachNodes
    // (Algorithm 2, lines 19-40) in one pre-order pass. The operand
    // root leaves its place first and is hung under our root last,
    // stamped with the current root time (lines 24-27); every other
    // progressed node is unlinked and relinked under its operand
    // parent, after the siblings relinked before it (tail), as the
    // walk meets it. Each operand node is met once, so a node's time
    // is still the pre-join one when it is tested; its parent's is
    // already updated, which is why the level keeps the parent's
    // pre-join time (parent_before) for the indirect cut.
    Node *mine = nodes_.mut().data();
    Node &zn = mine[static_cast<std::size_t>(z)];
    if (zn.link != kAbsent)
        detachFromParent(z);
    Tid parent = z;
    Clk parent_before = zn.clk;
    Tid tail = kNoTid;
    Tid cur = theirs[static_cast<std::size_t>(z)].firstChild;
    zn.clk = other_root_clk;
    std::vector<ScratchArena::Frame> &frames = scratch().frames;
    frames.clear();
    frames.reserve(other.size());

    std::uint64_t examined = 0;
    std::uint64_t transplanted = 1;
    while (true) {
        if (cur == kNoTid) {
            // Level exhausted or cut: resume the suspended one.
            if (frames.empty())
                break;
            const ScratchArena::Frame &f = frames.back();
            parent = f.node;
            parent_before = f.before;
            cur = f.next;
            tail = f.tail;
            frames.pop_back();
            continue;
        }
        examined++;
        const Node &o = theirs[static_cast<std::size_t>(cur)];
        Node &m = mine[static_cast<std::size_t>(cur)];
        const Clk before = m.clk;
        const bool progressed = before < o.clk;
        if (progressed) {
            if (m.link != kAbsent)
                detachFromParent(cur);
            insertChildAfter(cur, parent, tail);
            tail = cur;
            m.clk = o.clk;
            m.aclk = o.aclk;
            transplanted++;
        }
        if (progressed || !kPrune) {
            // Direct monotonicity: descend only into progressed
            // subtrees (joinFull descends regardless).
            if (o.firstChild != kNoTid) {
                frames.push_back({parent, parent_before, o.nextSib, tail});
                parent = cur;
                parent_before = before;
                tail = kNoTid;
                cur = o.firstChild;
            } else {
                cur = o.nextSib;
            }
            continue;
        }
        // Indirect monotonicity: siblings further down the list were
        // attached no later than cur, so once our pre-join view of
        // the parent covers cur's attachment it covers them too
        // (line 39).
        cur = o.aclk <= parent_before ? kNoTid : o.nextSib;
    }
    zn.aclk = localClk();
    pushChild(z, root_);

    if (counters) {
        // Every transplanted node progressed, so each one changed
        // exactly one entry of the vector time.
        counters->joins++;
        counters->vtWork += transplanted;
        counters->dsWork += 1 + examined + transplanted;
    }
}

void
TreeClock::join(const TreeClock &other)
{
    joinImpl<true>(other);
}

void
TreeClock::joinFull(const TreeClock &other)
{
    joinImpl<false>(other);
}

void
TreeClock::monotoneCopy(const TreeClock &other)
{
    if (other.root_ == kNoTid) {
        TC_CHECK(root_ == kNoTid,
                 "monotoneCopy from an empty clock onto a non-empty "
                 "one violates this ⊑ other");
        return;
    }
    WorkCounters *const counters = this->counters();
    nodes_.change(counters);
    if (root_ == kNoTid) {
        // First population of an auxiliary clock: plain linear copy.
        deepCopy(other);
        return;
    }
    TC_ASSERT(lessThanOrEqualExact(other),
              "monotoneCopy requires this ⊑ other");
    ensure(other.size());

    // Fast path: same root thread and only its time progressed
    // (the common shape for last-write and read clocks refreshed by
    // the same thread). By indirect monotonicity the first child's
    // coverage extends to all siblings, so the copy is one store.
    if (other.root_ == root_) {
        const Node *theirs = other.records();
        const Tid c = theirs[static_cast<std::size_t>(root_)].firstChild;
        const Clk other_clk = other.localClk();
        Node &r = node(root_);
        if (c == kNoTid ||
            (rawGet(c) >= theirs[static_cast<std::size_t>(c)].clk &&
             theirs[static_cast<std::size_t>(c)].aclk <= r.clk)) {
            const std::uint64_t changed = r.clk != other_clk;
            r.clk = other_clk;
            if (counters) {
                // Same accounting as the generic path: children
                // examined (0 or 1) + the root transplant.
                counters->copies++;
                counters->vtWork += changed;
                counters->dsWork += 1 + (c != kNoTid);
            }
            return;
        }
    }

    ScratchArena &scratch_arena = scratch();
    std::vector<ScratchArena::Transplant> &S = scratch_arena.gathered;
    S.clear();

    std::uint64_t examined = 0;
    gatherCopy(other, S, scratch_arena.frames, examined);

    if (root_ != other.root_ &&
        std::none_of(S.begin(), S.end(),
                     [&](const ScratchArena::Transplant &g) {
                         return g.node == root_;
                     })) {
        // The traversal never met our old root, so repositioning it
        // is impossible without breaking reachability. This cannot
        // happen under the HB/SHB/MAZ usage discipline (Lemma 5);
        // stay correct for ad-hoc users via the linear path.
        if (counters) {
            counters->fallbackCopies++;
            counters->dsWork += examined;
        }
        deepCopy(other);
        return;
    }

    if (S.size() > nodes_.own().size() / kDenseCopyDivisor) {
        // Dense copy: most of the tree moves, so one flat copy of
        // every record beats relinking node by node. The vector time
        // and vtWork are the relink's (nodes outside S already hold
        // the operand's time); dsWork pays the width instead of the
        // transplants.
        if (counters)
            counters->dsWork += examined;
        deepCopy(other);
        return;
    }

    unlinkGathered(S);
    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    root_ = other.root_;
    Node &r = node(root_);
    r.link = kNoTid;
    r.aclk = 0;
    r.nextSib = kNoTid;

    if (counters) {
        counters->copies++;
        counters->vtWork += changed;
        counters->dsWork += examined + transplanted;
    }
}

bool
TreeClock::copyCheckMonotone(const TreeClock &other)
{
    WorkCounters *const counters = this->counters();
    const bool monotone = lessThanOrEqual(other);
    if (!monotone && counters)
        counters->deepCopies++;
    if (arena_ && other.arena_ == arena_ && !other.empty() &&
        nodes_.canShare(other.nodes_)) {
        nodes_.share(other.nodes_, other.root_, arena_->treeFrozen,
                     counters);
        root_ = other.root_;
        if (counters) {
            counters->copies++;
            counters->dsWork++;
        }
        return monotone;
    }
    // A copy, like a share, moves no vector time of its own: the
    // entries are the source's. An empty source is copied and
    // leaves the target empty: the O(1) test passes it for a target
    // whose root time is 0, but monotoneCopy cannot empty a clock.
    const std::uint64_t vt_work = counters ? counters->vtWork : 0;
    if (monotone && !other.empty())
        monotoneCopy(other);
    else
        deepCopy(other);
    if (counters)
        counters->vtWork = vt_work;
    return monotone;
}

void
TreeClock::deepCopy(const TreeClock &other)
{
    WorkCounters *const counters = this->counters();
    nodes_.change(counters);
    ensure(other.size());
    std::vector<Node> &mine = nodes_.mut();
    const Node *src = other.records();
    const std::size_t n = other.size();
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < n; i++)
        changed += mine[i].clk != src[i].clk;
    for (std::size_t i = n; i < mine.size(); i++)
        changed += mine[i].clk != 0;
    // A sharing operand's root time is its own, not the record's.
    const auto r = static_cast<std::size_t>(other.root_);
    const bool patch_root =
        other.nodes_.sharing() && other.root_ != kNoTid;
    const Clk root_clk = other.localClk();
    if (patch_root) {
        changed -= mine[r].clk != src[r].clk;
        changed += mine[r].clk != root_clk;
    }
    // One bulk record copy, then absent records past the operand's
    // width.
    std::copy(src, src + n, mine.begin());
    std::fill(mine.begin() + static_cast<std::ptrdiff_t>(n),
              mine.end(), Node{});
    if (patch_root)
        mine[r].clk = root_clk;
    root_ = other.root_;
    if (counters) {
        counters->copies++;
        counters->vtWork += changed;
        counters->dsWork += mine.size();
    }
}

std::vector<Clk>
TreeClock::toVector(std::size_t min_threads) const
{
    if (arena_ && arena_->idMap.active()) {
        // External index space: project each mapped id through its
        // slot/bias/cap record so the vector time reads in trace
        // ids, exactly like a flat vector clock's.
        const std::size_t exts = arena_->idMap.extCount();
        std::vector<Clk> out(std::max(exts, min_threads), 0);
        for (std::size_t t = 0; t < exts; t++)
            out[t] = get(static_cast<Tid>(t));
        return out;
    }
    std::vector<Clk> out(std::max(size(), min_threads), 0);
    for (std::size_t i = 0; i < size(); i++)
        out[i] = rawGet(static_cast<Tid>(i));
    return out;
}

std::size_t
TreeClock::nodeCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); i++)
        n += hasThread(static_cast<Tid>(i));
    return n;
}

Tid
TreeClock::parentOf(Tid t) const
{
    if (!hasThread(t))
        return kNoTid;
    Tid link = node(t).link;
    while (link >= 0)
        link = node(link).link;
    return link == kNoTid ? kNoTid : taggedParent(link);
}

Clk
TreeClock::aclkOf(Tid t) const
{
    return hasThread(t) && t != root_
               ? node(t).aclk
               : 0;
}

std::vector<Tid>
TreeClock::childrenOf(Tid t) const
{
    std::vector<Tid> out;
    if (!hasThread(t))
        return out;
    for (Tid c = node(t).firstChild;
         c != kNoTid; c = node(c).nextSib) {
        out.push_back(c);
    }
    return out;
}

std::string
TreeClock::checkInvariants() const
{
    if (nodes_.sharing())
        return TreeClock(*this).checkInvariants();
    const std::size_t present = nodeCount();
    if (root_ == kNoTid) {
        if (present != 0)
            return "empty clock has present nodes";
        return "";
    }
    if (!hasThread(root_))
        return "root is not present";
    if (node(root_).link != kNoTid)
        return "root has a parent";

    // Walk the tree from the root, verifying link consistency and
    // the descending-aclk child order on the way.
    std::vector<Tid> stack{root_};
    std::size_t reached = 0;
    std::vector<bool> seen(nodes_.own().size(), false);
    while (!stack.empty()) {
        const Tid u = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(u)])
            return strFormat("node t%d reached twice (cycle)", u);
        seen[static_cast<std::size_t>(u)] = true;
        reached++;

        const Clk parent_clk = node(u).clk;
        Clk prev_aclk = 0;
        bool first = true;
        Tid prev = kNoTid;
        for (Tid c = node(u).firstChild; c != kNoTid;
             c = node(c).nextSib) {
            if (!hasThread(c))
                return strFormat("child t%d of t%d not present", c,
                                 u);
            const Node &n = node(c);
            if (first && n.link != parentTag(u))
                return strFormat("child t%d has wrong parent", c);
            if (!first && n.link != prev)
                return strFormat("broken prevSib link at t%d", c);
            if (!first && n.aclk > prev_aclk) {
                return strFormat(
                    "children of t%d not in descending aclk order",
                    u);
            }
            if (n.aclk > parent_clk) {
                return strFormat(
                    "child t%d attached later (%u) than parent time "
                    "(%u)", c, n.aclk, parent_clk);
            }
            prev_aclk = n.aclk;
            first = false;
            prev = c;
            stack.push_back(c);
        }
    }
    if (reached != present) {
        return strFormat(
            "%zu nodes present but only %zu reachable from root",
            present, reached);
    }
    return "";
}

std::vector<Tid>
TreeClock::parentColumn() const
{
    const std::vector<Node> &own = nodes_.own();
    std::vector<Tid> parent(own.size(), kAbsent);
    if (root_ != kNoTid)
        parent[static_cast<std::size_t>(root_)] = kNoTid;
    for (std::size_t i = 0; i < own.size(); i++) {
        // Only present nodes' child lists are links; an absent
        // record's are whatever a snapshot held.
        if (own[i].link == kAbsent)
            continue;
        for (Tid c = own[i].firstChild; c != kNoTid;
             c = node(c).nextSib)
            parent[static_cast<std::size_t>(c)] = static_cast<Tid>(i);
    }
    return parent;
}

void
TreeClock::serialize(ByteSink &out) const
{
    if (nodes_.sharing()) {
        TreeClock(*this).serialize(out);
        return;
    }
    out.putI32(root_);
    // The retired per-clock fallback-copy count: always 0 under
    // HB/SHB/MAZ (Lemma 5), kept so the layout stays the same.
    out.putU64(0);
    // One length-prefixed column per field of the six-array clock
    // layout checkpoints keep, whatever the in-memory records hold:
    // parent and prevSib are rebuilt from the links.
    const std::vector<Node> &own = nodes_.own();
    auto column = [&](auto value) {
        out.putU64(own.size());
        for (const Node &n : own) {
            const auto v = value(n);
            out.putBytes(&v, sizeof(v));
        }
    };
    column([](const Node &n) { return n.clk; });
    column([](const Node &n) { return n.aclk; });
    out.putVec(parentColumn());
    column([](const Node &n) { return n.firstChild; });
    column([](const Node &n) { return n.nextSib; });
    column([](const Node &n) { return n.link >= 0 ? n.link : kNoTid; });
}

bool
TreeClock::deserialize(ByteSource &in)
{
    Tid root = kNoTid;
    std::uint64_t fallback = 0; // read and dropped (serialize())
    std::vector<Clk> clk, aclk;
    std::vector<Tid> parent, first_child, next_sib, prev_sib;
    if (!in.getI32(root) || !in.getU64(fallback) ||
        !in.getVec(clk) || !in.getVec(aclk) ||
        !in.getVec(parent) || !in.getVec(first_child) ||
        !in.getVec(next_sib) || !in.getVec(prev_sib))
        return false;

    // Reject before mutating: all six columns must agree, the root
    // must be addressable, absent nodes must read as time 0 (get()
    // serves straight from the records), and every parent and
    // prevSib entry must name a slot, so each record's link can be
    // derived from them.
    const std::size_t n = clk.size();
    if (n > kMaxWidth || aclk.size() != n || parent.size() != n ||
        first_child.size() != n || next_sib.size() != n ||
        prev_sib.size() != n)
        return in.fail();
    if (root != kNoTid &&
        (root < 0 || static_cast<std::size_t>(root) >= n))
        return in.fail();
    const auto slot = [n](Tid t) {
        return t >= 0 && static_cast<std::size_t>(t) < n;
    };
    for (std::size_t i = 0; i < n; i++) {
        if (parent[i] == kAbsent &&
            static_cast<Tid>(i) != root && clk[i] != 0)
            return in.fail();
        if ((parent[i] != kAbsent && parent[i] != kNoTid &&
             !slot(parent[i])) ||
            (prev_sib[i] != kNoTid && !slot(prev_sib[i])))
            return in.fail();
    }

    std::vector<Node> records(n);
    for (std::size_t i = 0; i < n; i++) {
        const Tid link = prev_sib[i] != kNoTid ? prev_sib[i]
                         : parent[i] < 0      ? parent[i]
                                              : parentTag(parent[i]);
        records[i] = Node{clk[i], aclk[i], first_child[i], next_sib[i],
                          link};
    }
    root_ = root;
    nodes_.assign(std::move(records), counters());
    // checkInvariants() follows the links, which carry every prevSib
    // entry and a first child's parent. A non-first child's parent
    // entry is in no record, so check the column against the child
    // lists.
    if (!checkInvariants().empty() || parentColumn() != parent) {
        // Leave a rejected clock empty rather than structurally
        // broken; the configured sinks stay attached.
        root_ = kNoTid;
        nodes_.assign({}, counters());
        return in.fail();
    }
    return true;
}

std::string
TreeClock::toString() const
{
    if (nodes_.sharing())
        return TreeClock(*this).toString();
    if (root_ == kNoTid)
        return "(empty tree clock)\n";
    std::string out;
    // Depth-first render; stack of (tid, depth).
    std::vector<std::pair<Tid, int>> stack{{root_, 0}};
    while (!stack.empty()) {
        const auto [u, depth] = stack.back();
        stack.pop_back();
        out += std::string(static_cast<std::size_t>(depth) * 2, ' ');
        const Node &n = node(u);
        if (u == root_) {
            out += strFormat("(t%d, %u, _)\n", u, n.clk);
        } else {
            out += strFormat("(t%d, %u, %u)\n", u, n.clk, n.aclk);
        }
        // Push children reversed so the first child prints first.
        const auto kids = childrenOf(u);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it)
            stack.push_back({*it, depth + 1});
    }
    return out;
}

} // namespace tc
