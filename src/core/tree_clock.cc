#include "core/tree_clock.hh"

#include <algorithm>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

TreeClock::TreeClock(Tid owner, std::size_t capacity)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    ensure(std::max<std::size_t>(capacity,
                                 static_cast<std::size_t>(owner) + 1));
    root_ = owner;
    node(owner).parent = kNoTid;
}

void
TreeClock::ensure(std::size_t n)
{
    if (nodes_.size() < n) {
        nodes_.resize(n);
        updateAccounting();
    }
}

void
TreeClock::resetToRoot(Tid owner, Clk start)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    std::fill(nodes_.begin(), nodes_.end(), Node{});
    ensure(static_cast<std::size_t>(owner) + 1);
    root_ = owner;
    Node &r = node(owner);
    r.parent = kNoTid;
    r.clk = start;
}

void
TreeClock::increment(Clk delta)
{
    TC_CHECK(root_ != kNoTid,
             "increment() requires an initialized thread clock");
    node(root_).clk += delta;
    if (counters_) {
        counters_->increments++;
        counters_->vtWork++;
        counters_->dsWork++;
    }
}

bool
TreeClock::lessThanOrEqualExact(const TreeClock &other) const
{
    for (std::size_t i = 0; i < nodes_.size(); i++) {
        if (nodes_[i].clk > other.rawGet(static_cast<Tid>(i)))
            return false;
    }
    return true;
}

void
TreeClock::pushChild(Tid child, Tid parent)
{
    Node &c = node(child);
    Node &p = node(parent);
    c.parent = parent;
    c.prevSib = kNoTid;
    const Tid head = p.firstChild;
    c.nextSib = head;
    if (head != kNoTid)
        node(head).prevSib = child;
    p.firstChild = child;
}

void
TreeClock::detachFromParent(Tid t)
{
    const Node &n = node(t);
    const Tid prev = n.prevSib;
    const Tid next = n.nextSib;
    if (prev != kNoTid) {
        node(prev).nextSib = next;
    } else {
        node(n.parent).firstChild = next;
    }
    if (next != kNoTid)
        node(next).prevSib = prev;
}

template <bool kPrune>
void
TreeClock::gatherUpdated(const TreeClock &other, std::vector<Tid> &S,
                         bool is_copy, Tid z_tid,
                         std::uint64_t &examined) const
{
    // Iterative rendering of getUpdatedNodesJoin/-Copy
    // (Algorithm 2, lines 36-40 and 62-69), walking the operand's
    // tree with parent-pointer backtracking — no auxiliary frame
    // stack. S is filled in pre-order; attachNodes pops it from the
    // back, which attaches later siblings first so the front-insert
    // of pushChild restores the operand's (descending-aclk) child
    // order. The walk reads only our timestamps, never our links, so
    // unlinking S afterwards (unlinkGathered) is equivalent to
    // unlinking each node as it is met.
    const Node *theirs = other.nodes_.data();
    const Node *mine = nodes_.data();

    const Tid root = other.root_;
    S.push_back(root);
    Tid parent = root;
    Tid cur = theirs[static_cast<std::size_t>(root)].firstChild;
    std::uint64_t scans = 0;
    while (true) {
        if (cur == kNoTid) {
            // Level exhausted: resume the parent's sibling scan.
            if (parent == root)
                break;
            const Node &p = theirs[static_cast<std::size_t>(parent)];
            cur = p.nextSib;
            parent = p.parent;
            continue;
        }
        scans++;
        const Node &o = theirs[static_cast<std::size_t>(cur)];
        const bool progressed =
            mine[static_cast<std::size_t>(cur)].clk < o.clk;
        if (progressed || !kPrune) {
            // Direct monotonicity: descend only into progressed
            // subtrees (joinFull descends regardless but still
            // transplants only progressed nodes).
            if (progressed || is_copy)
                S.push_back(cur);
            if (o.firstChild != kNoTid) {
                parent = cur;
                cur = o.firstChild;
            } else {
                cur = o.nextSib;
            }
            continue;
        }
        if (is_copy && cur == z_tid) {
            // The copy target's old root must be repositioned even
            // though its time has not progressed (line 67).
            S.push_back(cur);
        }
        if (o.aclk <= mine[static_cast<std::size_t>(parent)].clk) {
            // Indirect monotonicity: siblings further down the list
            // were attached no later than cur, so our view of the
            // parent already covers them (lines 39/68).
            if (parent == root)
                break;
            const Node &p = theirs[static_cast<std::size_t>(parent)];
            cur = p.nextSib;
            parent = p.parent;
            continue;
        }
        cur = o.nextSib;
    }
    examined += scans;
}

void
TreeClock::unlinkGathered(const std::vector<Tid> &S)
{
    for (const Tid t : S) {
        if (t != root_ && node(t).parent != kAbsent)
            detachFromParent(t);
    }
}

std::uint64_t
TreeClock::attachNodes(const TreeClock &other, std::vector<Tid> &S)
{
    // Iterate back-to-front: S is in pre-order, so later siblings
    // attach first and pushChild's front insertion restores the
    // operand's child order.
    const Node *theirs = other.nodes_.data();
    Node *mine = nodes_.data();
    std::uint64_t changed = 0;
    for (std::size_t idx = S.size(); idx-- > 0;) {
        const Tid t = S[idx];
        const Node &o = theirs[static_cast<std::size_t>(t)];
        Node &m = mine[static_cast<std::size_t>(t)];
        changed += m.clk != o.clk;
        m.clk = o.clk;
        const Tid parent = o.parent;
        if (parent != kNoTid) {
            Node &p = mine[static_cast<std::size_t>(parent)];
            m.aclk = o.aclk;
            m.parent = parent;
            m.prevSib = kNoTid;
            const Tid head = p.firstChild;
            m.nextSib = head;
            if (head != kNoTid)
                mine[static_cast<std::size_t>(head)].prevSib = t;
            p.firstChild = t;
        }
    }
    return changed;
}

template <bool kPrune>
void
TreeClock::joinImpl(const TreeClock &other)
{
    if (other.root_ == kNoTid) {
        // Nothing to learn from an empty clock; still an operation
        // (vector clocks count it too, over zero stored entries).
        if (counters_)
            counters_->joins++;
        return;
    }
    TC_CHECK(root_ != kNoTid,
             "join() requires an initialized thread clock");

    const Clk other_root_clk = other.node(other.root_).clk;
    if (rawGet(other.root_) >= other_root_clk) {
        // Root already covered: by direct monotonicity the whole
        // operand is covered (Algorithm 2, line 18).
        if (counters_) {
            counters_->joins++;
            counters_->dsWork++;
        }
        return;
    }
    TC_CHECK(other.rawGet(root_) <= localClk(),
             "join operand claims to know this thread's future");
    ensure(other.nodes_.size());

    // Fast path: only the operand's root thread progressed. Its
    // first child is not ahead of us and was attached no later than
    // our knowledge of the root, so by indirect monotonicity the
    // whole remainder is covered; transplant just the root node.
    if constexpr (kPrune) {
        const Tid c = other.node(other.root_).firstChild;
        if (c == kNoTid ||
            (rawGet(c) >= other.node(c).clk &&
             other.node(c).aclk <= rawGet(other.root_))) {
            Node &n = node(other.root_);
            if (n.parent != kAbsent)
                detachFromParent(other.root_);
            n.clk = other_root_clk;
            n.aclk = localClk();
            pushChild(other.root_, root_);
            if (counters_) {
                // Same accounting as the generic path: root compare
                // + children examined (0 or 1) + one transplant.
                counters_->joins++;
                counters_->vtWork += 1;
                counters_->dsWork += 2 + (c != kNoTid);
            }
            return;
        }
    }

    std::vector<Tid> &S = scratch();
    S.clear();

    std::uint64_t examined = 0;
    gatherUpdated<kPrune>(other, S, false, kNoTid, examined);
    unlinkGathered(S);
    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    // Hang the transplanted subtree under our root, stamped with the
    // current root time (Algorithm 2, lines 24-27).
    node(other.root_).aclk = localClk();
    pushChild(other.root_, root_);

    if (counters_) {
        counters_->joins++;
        counters_->vtWork += changed;
        counters_->dsWork += 1 + examined + transplanted;
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
    if (root_ == kNoTid) {
        // First population of an auxiliary clock: plain linear copy.
        deepCopy(other);
        return;
    }
    TC_ASSERT(lessThanOrEqualExact(other),
              "monotoneCopy requires this ⊑ other");
    ensure(other.nodes_.size());

    // Fast path: same root thread and only its time progressed
    // (the common shape for last-write and read clocks refreshed by
    // the same thread). By indirect monotonicity the first child's
    // coverage extends to all siblings, so the copy is one store.
    if (other.root_ == root_) {
        const Node &o = other.node(root_);
        const Tid c = o.firstChild;
        Node &r = node(root_);
        if (c == kNoTid ||
            (rawGet(c) >= other.node(c).clk &&
             other.node(c).aclk <= r.clk)) {
            const std::uint64_t changed = r.clk != o.clk;
            r.clk = o.clk;
            if (counters_) {
                // Same accounting as the generic path: children
                // examined (0 or 1) + the root transplant.
                counters_->copies++;
                counters_->vtWork += changed;
                counters_->dsWork += 1 + (c != kNoTid);
            }
            return;
        }
    }

    std::vector<Tid> &S = scratch();
    S.clear();

    std::uint64_t examined = 0;
    gatherUpdated<true>(other, S, true, root_, examined);

    if (root_ != other.root_ &&
        std::find(S.begin(), S.end(), root_) == S.end()) {
        // The traversal never met our old root, so repositioning it
        // is impossible without breaking reachability. This cannot
        // happen under the HB/SHB/MAZ usage discipline (Lemma 5);
        // stay correct for ad-hoc users via the linear path.
        fallbackCopies_++;
        if (counters_) {
            counters_->fallbackCopies++;
            counters_->dsWork += examined;
        }
        deepCopy(other);
        return;
    }

    if (S.size() > nodes_.size() / kDenseCopyDivisor) {
        // Dense copy: most of the tree moves, so one flat copy of
        // every record beats relinking node by node. The vector time
        // and vtWork are the relink's (nodes outside S already hold
        // the operand's time); dsWork pays the width instead of the
        // transplants.
        if (counters_)
            counters_->dsWork += examined;
        deepCopy(other);
        return;
    }

    unlinkGathered(S);
    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    root_ = other.root_;
    Node &r = node(root_);
    r.parent = kNoTid;
    r.aclk = 0;
    r.nextSib = kNoTid;
    r.prevSib = kNoTid;

    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += examined + transplanted;
    }
}

bool
TreeClock::copyCheckMonotone(const TreeClock &other)
{
    if (lessThanOrEqual(other)) {
        monotoneCopy(other);
        return true;
    }
    if (counters_)
        counters_->deepCopies++;
    deepCopy(other);
    return false;
}

void
TreeClock::deepCopy(const TreeClock &other)
{
    ensure(other.nodes_.size());
    const std::size_t n = other.nodes_.size();
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < n; i++)
        changed += nodes_[i].clk != other.nodes_[i].clk;
    for (std::size_t i = n; i < nodes_.size(); i++)
        changed += nodes_[i].clk != 0;
    // One bulk record copy, then absent records past the operand's
    // width.
    std::copy(other.nodes_.begin(), other.nodes_.end(), nodes_.begin());
    std::fill(nodes_.begin() + static_cast<std::ptrdiff_t>(n),
              nodes_.end(), Node{});
    root_ = other.root_;
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += nodes_.size();
    }
}

std::vector<Clk>
TreeClock::toVector(std::size_t min_threads) const
{
    if (idMap_ && idMap_->active()) {
        // External index space: project each mapped id through its
        // slot/bias/cap record so the vector time reads in trace
        // ids, exactly like a flat vector clock's.
        const std::size_t exts = idMap_->extCount();
        std::vector<Clk> out(std::max(exts, min_threads), 0);
        for (std::size_t t = 0; t < exts; t++)
            out[t] = get(static_cast<Tid>(t));
        return out;
    }
    std::vector<Clk> out(std::max(nodes_.size(), min_threads), 0);
    for (std::size_t i = 0; i < nodes_.size(); i++)
        out[i] = nodes_[i].clk;
    return out;
}

std::size_t
TreeClock::nodeCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < nodes_.size(); i++)
        n += hasThread(static_cast<Tid>(i));
    return n;
}

Tid
TreeClock::parentOf(Tid t) const
{
    if (!hasThread(t))
        return kNoTid;
    const Tid p = node(t).parent;
    return p == kAbsent ? kNoTid : p;
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
    const std::size_t present = nodeCount();
    if (root_ == kNoTid) {
        if (present != 0)
            return "empty clock has present nodes";
        return "";
    }
    if (!hasThread(root_))
        return "root is not present";
    if (node(root_).parent != kNoTid)
        return "root has a parent";

    // Walk the tree from the root, verifying link consistency and
    // the descending-aclk child order on the way.
    std::vector<Tid> stack{root_};
    std::size_t reached = 0;
    std::vector<bool> seen(nodes_.size(), false);
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
            if (n.parent != u)
                return strFormat("child t%d has wrong parent", c);
            if (n.prevSib != prev)
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

void
TreeClock::serialize(ByteSink &out) const
{
    out.putI32(root_);
    out.putU64(fallbackCopies_);
    // One length-prefixed column per node field, in record order:
    // checkpoints keep their six-array clock layout whatever the
    // in-memory representation.
    auto column = [&](auto field) {
        out.putU64(nodes_.size());
        for (const Node &n : nodes_)
            out.putBytes(&(n.*field), sizeof(n.*field));
    };
    column(&Node::clk);
    column(&Node::aclk);
    column(&Node::parent);
    column(&Node::firstChild);
    column(&Node::nextSib);
    column(&Node::prevSib);
}

bool
TreeClock::deserialize(ByteSource &in)
{
    Tid root = kNoTid;
    std::uint64_t fallback = 0;
    std::vector<Clk> clk, aclk;
    std::vector<Tid> parent, first_child, next_sib, prev_sib;
    if (!in.getI32(root) || !in.getU64(fallback) ||
        !in.getVec(clk) || !in.getVec(aclk) ||
        !in.getVec(parent) || !in.getVec(first_child) ||
        !in.getVec(next_sib) || !in.getVec(prev_sib))
        return false;

    // Reject before mutating: all six columns must agree, the root
    // must be addressable, and absent nodes must read as time 0
    // (get() serves straight from the records).
    const std::size_t n = clk.size();
    if (aclk.size() != n || parent.size() != n ||
        first_child.size() != n || next_sib.size() != n ||
        prev_sib.size() != n)
        return in.fail();
    if (root != kNoTid &&
        (root < 0 || static_cast<std::size_t>(root) >= n))
        return in.fail();
    for (std::size_t i = 0; i < n; i++) {
        if (parent[i] == kAbsent &&
            static_cast<Tid>(i) != root && clk[i] != 0)
            return in.fail();
    }

    root_ = root;
    fallbackCopies_ = fallback;
    nodes_.resize(n);
    for (std::size_t i = 0; i < n; i++) {
        nodes_[i] = Node{clk[i],         aclk[i],     parent[i],
                         first_child[i], next_sib[i], prev_sib[i]};
    }
    updateAccounting();
    if (!checkInvariants().empty()) {
        // Leave a rejected clock empty rather than structurally
        // broken; the configured sinks stay attached.
        root_ = kNoTid;
        nodes_.clear();
        return in.fail();
    }
    return true;
}

std::string
TreeClock::toString() const
{
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
