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
    parent_[static_cast<std::size_t>(owner)] = kNoTid;
}

void
TreeClock::ensure(std::size_t n)
{
    if (clk_.size() < n) {
        clk_.resize(n, 0);
        aclk_.resize(n, 0);
        parent_.resize(n, kAbsent);
        firstChild_.resize(n, kNoTid);
        nextSib_.resize(n, kNoTid);
        prevSib_.resize(n, kNoTid);
        updateAccounting();
    }
}

void
TreeClock::resetToRoot(Tid owner, Clk start)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    std::fill(clk_.begin(), clk_.end(), 0);
    std::fill(aclk_.begin(), aclk_.end(), 0);
    std::fill(parent_.begin(), parent_.end(), kAbsent);
    std::fill(firstChild_.begin(), firstChild_.end(), kNoTid);
    std::fill(nextSib_.begin(), nextSib_.end(), kNoTid);
    std::fill(prevSib_.begin(), prevSib_.end(), kNoTid);
    ensure(static_cast<std::size_t>(owner) + 1);
    root_ = owner;
    const auto o = static_cast<std::size_t>(owner);
    parent_[o] = kNoTid;
    clk_[o] = start;
}

void
TreeClock::increment(Clk delta)
{
    TC_CHECK(root_ != kNoTid,
             "increment() requires an initialized thread clock");
    clk_[static_cast<std::size_t>(root_)] += delta;
    if (counters_) {
        counters_->increments++;
        counters_->vtWork++;
        counters_->dsWork++;
    }
}

bool
TreeClock::lessThanOrEqualExact(const TreeClock &other) const
{
    for (std::size_t i = 0; i < clk_.size(); i++) {
        if (clk_[i] > other.rawGet(static_cast<Tid>(i)))
            return false;
    }
    return true;
}

void
TreeClock::pushChild(Tid child, Tid parent)
{
    const auto c = static_cast<std::size_t>(child);
    const auto p = static_cast<std::size_t>(parent);
    parent_[c] = parent;
    prevSib_[c] = kNoTid;
    const Tid head = firstChild_[p];
    nextSib_[c] = head;
    if (head != kNoTid)
        prevSib_[static_cast<std::size_t>(head)] = child;
    firstChild_[p] = child;
}

void
TreeClock::detachFromParent(Tid t)
{
    const auto i = static_cast<std::size_t>(t);
    const Tid prev = prevSib_[i];
    const Tid next = nextSib_[i];
    if (prev != kNoTid) {
        nextSib_[static_cast<std::size_t>(prev)] = next;
    } else {
        firstChild_[static_cast<std::size_t>(parent_[i])] = next;
    }
    if (next != kNoTid)
        prevSib_[static_cast<std::size_t>(next)] = prev;
}

void
TreeClock::gatherUpdated(const TreeClock &other, std::vector<Tid> &S,
                         bool is_copy, Tid z_tid,
                         std::uint64_t &examined)
{
    // Iterative rendering of getUpdatedNodesJoin/-Copy
    // (Algorithm 2, lines 36-40 and 62-69), walking the operand's
    // tree with parent-pointer backtracking — no auxiliary frame
    // stack. S is filled in pre-order; attachNodes pops it from the
    // back, which attaches later siblings first so the front-insert
    // of pushChild restores the operand's (descending-aclk) child
    // order. Nodes are unlinked from our tree as they enter S (the
    // walk itself only reads our flat clk_ array, so the link edits
    // cannot disturb it).
    //
    // The scan reads exactly four operand arrays — clk (progress
    // test), aclk (indirect cut), nextSib/firstChild/parent
    // (navigation) — each a dense 4-byte stream thanks to the SoA
    // layout.
    const bool use_direct = policy_ != JoinPolicy::NoPruning;
    const bool use_indirect = policy_ == JoinPolicy::Full;

    const Clk *oclk = other.clk_.data();
    const Clk *oaclk = other.aclk_.data();
    const Tid *oparent = other.parent_.data();
    const Tid *ofirst = other.firstChild_.data();
    const Tid *onext = other.nextSib_.data();
    const Clk *mine = clk_.data();
    auto enter = [&](Tid t) {
        if (t != root_ &&
            parent_[static_cast<std::size_t>(t)] != kAbsent) {
            detachFromParent(t);
        }
        S.push_back(t);
    };

    const Tid root = other.root_;
    enter(root);
    Tid parent = root;
    Tid cur = ofirst[static_cast<std::size_t>(root)];
    std::uint64_t scans = 0;
    while (true) {
        if (cur == kNoTid) {
            // Level exhausted: resume the parent's sibling scan.
            if (parent == root)
                break;
            cur = onext[static_cast<std::size_t>(parent)];
            parent = oparent[static_cast<std::size_t>(parent)];
            continue;
        }
        scans++;
        const auto c = static_cast<std::size_t>(cur);
        const bool progressed = mine[c] < oclk[c];
        if (progressed || !use_direct) {
            // Direct monotonicity: descend only into progressed
            // subtrees (NoPruning descends regardless but still
            // only transplants progressed nodes on joins).
            if (progressed || is_copy)
                enter(cur);
            const Tid first = ofirst[c];
            if (first != kNoTid) {
                parent = cur;
                cur = first;
            } else {
                cur = onext[c];
            }
            continue;
        }
        if (is_copy && cur == z_tid) {
            // The copy target's old root must be repositioned even
            // though its time has not progressed (line 67).
            S.push_back(cur);
        }
        if (use_indirect &&
            oaclk[c] <= mine[static_cast<std::size_t>(parent)]) {
            // Indirect monotonicity: siblings further down the list
            // were attached no later than cur, so our view of the
            // parent already covers them (lines 39/68).
            if (parent == root)
                break;
            cur = onext[static_cast<std::size_t>(parent)];
            parent = oparent[static_cast<std::size_t>(parent)];
            continue;
        }
        cur = onext[c];
    }
    examined += scans;
}

std::uint64_t
TreeClock::attachNodes(const TreeClock &other, std::vector<Tid> &S)
{
    // Iterate back-to-front: S is in pre-order, so later siblings
    // attach first and pushChild's front insertion restores the
    // operand's child order.
    const Clk *oclk = other.clk_.data();
    const Clk *oaclk = other.aclk_.data();
    const Tid *oparent = other.parent_.data();
    Clk *mclk = clk_.data();
    Clk *maclk = aclk_.data();
    Tid *mparent = parent_.data();
    Tid *mfirst = firstChild_.data();
    Tid *mnext = nextSib_.data();
    Tid *mprev = prevSib_.data();
    std::uint64_t changed = 0;
    for (std::size_t idx = S.size(); idx-- > 0;) {
        const auto i = static_cast<std::size_t>(S[idx]);
        const Clk new_clk = oclk[i];
        changed += mclk[i] != new_clk;
        mclk[i] = new_clk;
        const Tid parent = oparent[i];
        if (parent != kNoTid) {
            const auto p = static_cast<std::size_t>(parent);
            maclk[i] = oaclk[i];
            mparent[i] = parent;
            mprev[i] = kNoTid;
            const Tid head = mfirst[p];
            mnext[i] = head;
            if (head != kNoTid)
                mprev[static_cast<std::size_t>(head)] =
                    static_cast<Tid>(i);
            mfirst[p] = static_cast<Tid>(i);
        }
    }
    return changed;
}

void
TreeClock::join(const TreeClock &other)
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

    const Clk other_root_clk =
        other.clk_[static_cast<std::size_t>(other.root_)];
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
    ensure(other.clk_.size());

    // Fast path: only the operand's root thread progressed. Its
    // first child is not ahead of us and was attached no later than
    // our knowledge of the root, so by indirect monotonicity the
    // whole remainder is covered; transplant just the root node.
    if (policy_ == JoinPolicy::Full) {
        const auto o = static_cast<std::size_t>(other.root_);
        const Tid c = other.firstChild_[o];
        if (c == kNoTid ||
            (rawGet(c) >= other.clk_[static_cast<std::size_t>(c)] &&
             other.aclk_[static_cast<std::size_t>(c)] <=
                 rawGet(other.root_))) {
            if (parent_[o] != kAbsent)
                detachFromParent(other.root_);
            clk_[o] = other_root_clk;
            aclk_[o] = clk_[static_cast<std::size_t>(root_)];
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
    gatherUpdated(other, S, false, kNoTid, examined);
    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    // Hang the transplanted subtree under our root, stamped with the
    // current root time (Algorithm 2, lines 24-27).
    aclk_[static_cast<std::size_t>(other.root_)] =
        clk_[static_cast<std::size_t>(root_)];
    pushChild(other.root_, root_);

    if (counters_) {
        counters_->joins++;
        counters_->vtWork += changed;
        counters_->dsWork += 1 + examined + transplanted;
    }
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
    ensure(other.clk_.size());

    // Fast path: same root thread and only its time progressed
    // (the common shape for last-write and read clocks refreshed by
    // the same thread). By indirect monotonicity the first child's
    // coverage extends to all siblings, so the copy is one store.
    if (policy_ == JoinPolicy::Full && other.root_ == root_) {
        const auto i = static_cast<std::size_t>(root_);
        const Tid c = other.firstChild_[i];
        if (c == kNoTid ||
            (rawGet(c) >= other.clk_[static_cast<std::size_t>(c)] &&
             other.aclk_[static_cast<std::size_t>(c)] <= clk_[i])) {
            const std::uint64_t changed = clk_[i] != other.clk_[i];
            clk_[i] = other.clk_[i];
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
    gatherUpdated(other, S, true, root_, examined);

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

    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    root_ = other.root_;
    const auto r = static_cast<std::size_t>(root_);
    parent_[r] = kNoTid;
    aclk_[r] = 0;
    nextSib_[r] = kNoTid;
    prevSib_[r] = kNoTid;

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
    ensure(other.clk_.size());
    std::uint64_t changed = 0;
    const std::size_t n = other.clk_.size();
    for (std::size_t i = 0; i < n; i++) {
        changed += clk_[i] != other.clk_[i];
        clk_[i] = other.clk_[i];
    }
    for (std::size_t i = n; i < clk_.size(); i++) {
        changed += clk_[i] != 0;
        clk_[i] = 0;
    }
    // Bulk per-array copies: each is a straight 4-byte memmove, the
    // payoff of the SoA layout on the linear path.
    std::copy(other.aclk_.begin(), other.aclk_.end(), aclk_.begin());
    std::copy(other.parent_.begin(), other.parent_.end(),
              parent_.begin());
    std::copy(other.firstChild_.begin(), other.firstChild_.end(),
              firstChild_.begin());
    std::copy(other.nextSib_.begin(), other.nextSib_.end(),
              nextSib_.begin());
    std::copy(other.prevSib_.begin(), other.prevSib_.end(),
              prevSib_.begin());
    std::fill(aclk_.begin() + static_cast<std::ptrdiff_t>(n),
              aclk_.end(), 0);
    std::fill(parent_.begin() + static_cast<std::ptrdiff_t>(n),
              parent_.end(), kAbsent);
    std::fill(firstChild_.begin() + static_cast<std::ptrdiff_t>(n),
              firstChild_.end(), kNoTid);
    std::fill(nextSib_.begin() + static_cast<std::ptrdiff_t>(n),
              nextSib_.end(), kNoTid);
    std::fill(prevSib_.begin() + static_cast<std::ptrdiff_t>(n),
              prevSib_.end(), kNoTid);
    root_ = other.root_;
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += clk_.size();
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
    std::vector<Clk> out(std::max(clk_.size(), min_threads), 0);
    std::copy(clk_.begin(), clk_.end(), out.begin());
    return out;
}

std::size_t
TreeClock::nodeCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < parent_.size(); i++)
        n += hasThread(static_cast<Tid>(i));
    return n;
}

Tid
TreeClock::parentOf(Tid t) const
{
    if (!hasThread(t))
        return kNoTid;
    const Tid p = parent_[static_cast<std::size_t>(t)];
    return p == kAbsent ? kNoTid : p;
}

Clk
TreeClock::aclkOf(Tid t) const
{
    return hasThread(t) && t != root_
               ? aclk_[static_cast<std::size_t>(t)]
               : 0;
}

std::vector<Tid>
TreeClock::childrenOf(Tid t) const
{
    std::vector<Tid> out;
    if (!hasThread(t))
        return out;
    for (Tid c = firstChild_[static_cast<std::size_t>(t)];
         c != kNoTid; c = nextSib_[static_cast<std::size_t>(c)]) {
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
    if (parent_[static_cast<std::size_t>(root_)] != kNoTid)
        return "root has a parent";

    // Walk the tree from the root, verifying link consistency and
    // the descending-aclk child order on the way.
    std::vector<Tid> stack{root_};
    std::size_t reached = 0;
    std::vector<bool> seen(parent_.size(), false);
    while (!stack.empty()) {
        const Tid u = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(u)])
            return strFormat("node t%d reached twice (cycle)", u);
        seen[static_cast<std::size_t>(u)] = true;
        reached++;

        Clk prev_aclk = 0;
        bool first = true;
        Tid prev = kNoTid;
        for (Tid c = firstChild_[static_cast<std::size_t>(u)];
             c != kNoTid; c = nextSib_[static_cast<std::size_t>(c)]) {
            const auto ci = static_cast<std::size_t>(c);
            if (!hasThread(c))
                return strFormat("child t%d of t%d not present", c,
                                 u);
            if (parent_[ci] != u)
                return strFormat("child t%d has wrong parent", c);
            if (prevSib_[ci] != prev)
                return strFormat("broken prevSib link at t%d", c);
            if (!first && aclk_[ci] > prev_aclk) {
                return strFormat(
                    "children of t%d not in descending aclk order",
                    u);
            }
            if (aclk_[ci] > clk_[static_cast<std::size_t>(u)]) {
                return strFormat(
                    "child t%d attached later (%u) than parent time "
                    "(%u)", c, aclk_[ci],
                    clk_[static_cast<std::size_t>(u)]);
            }
            prev_aclk = aclk_[ci];
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
    out.putVec(clk_);
    out.putVec(aclk_);
    out.putVec(parent_);
    out.putVec(firstChild_);
    out.putVec(nextSib_);
    out.putVec(prevSib_);
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

    // Reject before mutating: all six arrays must agree, the root
    // must be addressable, and absent nodes must read as time 0
    // (get() serves straight from clk_).
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
    clk_ = std::move(clk);
    aclk_ = std::move(aclk);
    parent_ = std::move(parent);
    firstChild_ = std::move(first_child);
    nextSib_ = std::move(next_sib);
    prevSib_ = std::move(prev_sib);
    updateAccounting();
    if (!checkInvariants().empty()) {
        // Leave a rejected clock empty rather than structurally
        // broken; the configured sinks stay attached.
        root_ = kNoTid;
        clk_.clear();
        aclk_.clear();
        parent_.clear();
        firstChild_.clear();
        nextSib_.clear();
        prevSib_.clear();
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
        if (u == root_) {
            out += strFormat("(t%d, %u, _)\n", u,
                             clk_[static_cast<std::size_t>(u)]);
        } else {
            out += strFormat("(t%d, %u, %u)\n", u,
                             clk_[static_cast<std::size_t>(u)],
                             aclk_[static_cast<std::size_t>(u)]);
        }
        // Push children reversed so the first child prints first.
        const auto kids = childrenOf(u);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it)
            stack.push_back({*it, depth + 1});
    }
    return out;
}

} // namespace tc
