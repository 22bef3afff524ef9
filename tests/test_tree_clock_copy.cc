/**
 * @file
 * MonotoneCopy / CopyCheckMonotone / deepCopy tests, including a
 * full hand-derived replay of the Appendix B example trace
 * (Figure 11): 16 events over 5 threads and 3 locks, asserting the
 * exact tree shapes the algorithm must produce after each step, and
 * the dense-copy cutover (flat copy once more than half the width
 * moves) pinned at its boundary and against vector clocks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"

namespace tc {
namespace {

struct Sim
{
    std::vector<TreeClock> threads;
    std::vector<TreeClock> locks;
    WorkCounters work;

    Sim(Tid num_threads, LockId num_locks)
    {
        for (Tid t = 0; t < num_threads; t++) {
            threads.emplace_back(
                t, static_cast<std::size_t>(num_threads));
            threads.back().setCounters(&work);
        }
        locks.resize(static_cast<std::size_t>(num_locks));
        for (auto &l : locks)
            l.setCounters(&work);
    }

    void
    acq(Tid t, LockId l)
    {
        threads[static_cast<std::size_t>(t)].increment(1);
        threads[static_cast<std::size_t>(t)].join(
            locks[static_cast<std::size_t>(l)]);
    }

    void
    rel(Tid t, LockId l)
    {
        threads[static_cast<std::size_t>(t)].increment(1);
        locks[static_cast<std::size_t>(l)].monotoneCopy(
            threads[static_cast<std::size_t>(t)]);
    }

    void sync(Tid t, LockId l) { acq(t, l); rel(t, l); }

    TreeClock &tcOf(Tid t)
    {
        return threads[static_cast<std::size_t>(t)];
    }
    TreeClock &lockOf(LockId l)
    {
        return locks[static_cast<std::size_t>(l)];
    }

    void
    checkAll()
    {
        for (const auto &c : threads)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
        for (const auto &c : locks)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
    }
};

TEST(TreeClockCopy, FirstCopyPopulatesEmptyLockClock)
{
    Sim sim(2, 1);
    sim.acq(0, 0);
    sim.rel(0, 0);
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 0);
    EXPECT_EQ(l0.localClk(), 2u);
    EXPECT_EQ(l0.checkInvariants(), "");
}

TEST(TreeClockCopy, MonotoneCopyRerootsToNewOwner)
{
    Sim sim(2, 1);
    sim.sync(0, 0);
    sim.acq(1, 0);
    sim.rel(1, 0);
    // The lock clock's root must now be t1, with t0's node below.
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 1);
    EXPECT_EQ(l0.parentOf(0), 1);
    EXPECT_EQ(l0.toVector(2), (std::vector<Clk>{2, 2}));
    sim.checkAll();
}

/**
 * The Appendix B trace (Figure 11a), threads t1..t5 = ids 0..4 and
 * locks l1..l3 = ids 0..2:
 *   e1  t1 acq(l1)   e2  t1 rel(l1)
 *   e3  t4 acq(l2)   e4  t4 rel(l2)
 *   e5  t5 acq(l3)   e6  t5 rel(l3)
 *   e7  t3 acq(l1)   e8  t3 acq(l3)
 *   e9  t3 rel(l3)   e10 t3 rel(l1)
 *   e11 t4 acq(l3)   e12 t4 rel(l3)
 *   e13 t2 acq(l1)   e14 t2 rel(l1)
 *   e15 t2 acq(l2)   e16 t2 rel(l2)
 * Shapes asserted below are hand-derived with Algorithm 2 (the
 * arXiv figure annotates per-sync ticks; this replay ticks per
 * acq/rel event, which only changes absolute clock values).
 */
TEST(TreeClockCopy, AppendixBReplay)
{
    Sim sim(5, 3);

    sim.acq(0, 0); // e1
    EXPECT_EQ(sim.tcOf(0).toString(), "(t0, 1, _)\n");
    sim.rel(0, 0); // e2
    EXPECT_EQ(sim.lockOf(0).toString(), "(t0, 2, _)\n");

    sim.acq(3, 1); // e3
    sim.rel(3, 1); // e4
    EXPECT_EQ(sim.lockOf(1).toString(), "(t3, 2, _)\n");

    sim.acq(4, 2); // e5
    sim.rel(4, 2); // e6
    EXPECT_EQ(sim.lockOf(2).toString(), "(t4, 2, _)\n");

    sim.acq(2, 0); // e7: t3 learns t1 through l1
    EXPECT_EQ(sim.tcOf(2).toString(),
              "(t2, 1, _)\n  (t0, 2, 1)\n");

    sim.acq(2, 2); // e8: t3 learns t5 through l3
    EXPECT_EQ(sim.tcOf(2).toString(),
              "(t2, 2, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.rel(2, 2); // e9: l3 now carries t3's full view
    EXPECT_EQ(sim.lockOf(2).toString(),
              "(t2, 3, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.rel(2, 0); // e10
    EXPECT_EQ(sim.lockOf(0).toString(),
              "(t2, 4, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.acq(3, 2); // e11: t4 learns t3's subtree through l3
    EXPECT_EQ(sim.tcOf(3).toString(),
              "(t3, 3, _)\n  (t2, 3, 3)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.rel(3, 2); // e12: the monotone copy must re-root l3's clock
                   // from t3 to t4 and reposition the old root.
    EXPECT_EQ(sim.lockOf(2).toString(),
              "(t3, 4, _)\n  (t2, 3, 3)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.acq(1, 0); // e13
    EXPECT_EQ(sim.tcOf(1).toString(),
              "(t1, 1, _)\n  (t2, 4, 1)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.rel(1, 0); // e14
    EXPECT_EQ(sim.lockOf(0).toString(),
              "(t1, 2, _)\n  (t2, 4, 1)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.acq(1, 1); // e15: learns t4@2 from l2
    EXPECT_EQ(sim.tcOf(1).toString(),
              "(t1, 3, _)\n  (t3, 2, 3)\n  (t2, 4, 1)\n"
              "    (t4, 2, 2)\n    (t0, 2, 1)\n");

    sim.rel(1, 1); // e16
    EXPECT_EQ(sim.lockOf(1).toString(),
              "(t1, 4, _)\n  (t3, 2, 3)\n  (t2, 4, 1)\n"
              "    (t4, 2, 2)\n    (t0, 2, 1)\n");

    sim.checkAll();
    // The whole run must never have needed the safety-net fallback.
    EXPECT_EQ(sim.work.fallbackCopies, 0u);
}

TEST(TreeClockCopy, CopyCheckMonotoneTakesCheapPathWhenCovered)
{
    WorkCounters w;
    TreeClock ct(0, 4);
    TreeClock lw;
    ct.setCounters(&w);
    lw.setCounters(&w);
    ct.increment(1);
    lw.copyCheckMonotone(ct); // first write: lw ⊑ ct trivially
    ct.increment(1);
    EXPECT_TRUE(lw.copyCheckMonotone(ct));
    EXPECT_EQ(w.deepCopies, 0u);
    EXPECT_EQ(lw.localClk(), 2u);
}

TEST(TreeClockCopy, CopyCheckMonotoneDeepCopiesOnRace)
{
    WorkCounters w;
    TreeClock c0(0, 4), c1(1, 4);
    TreeClock lw;
    c0.setCounters(&w);
    c1.setCounters(&w);
    lw.setCounters(&w);
    c0.increment(1);
    lw.copyCheckMonotone(c0); // lw = [1,0] rooted at t0
    c1.increment(1);
    // c1 knows nothing of t0: lw ̸⊑ c1 — exactly the SHB
    // write-after-unordered-write (race) situation.
    EXPECT_FALSE(lw.copyCheckMonotone(c1));
    EXPECT_EQ(w.deepCopies, 1u);
    EXPECT_EQ(lw.rootTid(), 1);
    EXPECT_EQ(lw.get(0), 0u); // replaced, not joined
    EXPECT_EQ(lw.get(1), 1u);
    EXPECT_EQ(lw.checkInvariants(), "");
}

TEST(TreeClockCopy, DeepCopyReplacesEverything)
{
    TreeClock a(0, 4), b(1, 4);
    a.increment(7);
    b.increment(2);
    b.join(a);
    TreeClock c(2, 4);
    c.increment(9);
    c.deepCopy(b);
    EXPECT_EQ(c.rootTid(), 1);
    EXPECT_EQ(c.toVector(4), b.toVector(4));
    EXPECT_EQ(c.get(2), 0u); // old self knowledge dropped
    EXPECT_EQ(c.checkInvariants(), "");
    // Structure is cloned verbatim.
    EXPECT_EQ(c.toString(), b.toString());
}

TEST(TreeClockCopy, MonotoneCopyPreconditionAsserted)
{
    TreeClock a(0, 2), b(1, 2);
    a.increment(5);
    b.increment(1);
#if !defined(NDEBUG) || defined(TC_ENABLE_ASSERTS)
    // a ̸⊑ b, and b's O(1) root test can't see it; the debug-mode
    // exact precondition check must fire.
    EXPECT_DEATH(a.monotoneCopy(b), "requires this");
#endif
}

TEST(TreeClockCopy, CopyFromEmptyOntoEmptyIsNoop)
{
    TreeClock a, b;
    a.monotoneCopy(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.checkInvariants(), "");
}

/**
 * The dense-copy cutover, pinned on both sides. The target is a
 * stale copy of thread 0's clock; thread 0 then learns m fresh
 * threads, so the next monotone copy examines the m new children
 * and transplants exactly m + 1 nodes (they and the progressed
 * root). With ⌊w/2⌋ transplants the copy relinks (dsWork =
 * examined + transplanted); with one more it finishes flat (dsWork
 * = examined + w). Both land on the operand's vector time at the
 * vector clock's vtWork.
 */
TEST(TreeClockCopy, DenseCopyCutoverBoundary)
{
    for (const std::size_t w : {std::size_t{8}, std::size_t{9}}) {
        for (const std::size_t moved : {w / 2, w / 2 + 1}) {
            SCOPED_TRACE(testing::Message()
                         << "w " << w << " moved " << moved);
            const std::size_t m = moved - 1;
            TreeClock t0(0, w);
            VectorClock v0(0, w);
            t0.increment(1);
            v0.increment(1);

            WorkCounters tw, vw;
            TreeClock target;
            VectorClock vtarget;
            target.setCounters(&tw);
            vtarget.setCounters(&vw);
            target.monotoneCopy(t0); // first population
            vtarget.monotoneCopy(v0);

            for (Tid u = 1; u <= static_cast<Tid>(m); u++) {
                TreeClock tu(u, w);
                VectorClock vu(u, w);
                tu.increment(1);
                vu.increment(1);
                t0.increment(1);
                v0.increment(1);
                t0.join(tu);
                v0.join(vu);
            }

            const WorkCounters tc_before = tw;
            const WorkCounters vc_before = vw;
            target.monotoneCopy(t0);
            vtarget.monotoneCopy(v0);

            EXPECT_EQ(target.toVector(w), t0.toVector(w));
            EXPECT_EQ(target.toVector(w), vtarget.toVector(w));
            EXPECT_EQ(target.checkInvariants(), "")
                << target.toString();
            EXPECT_EQ(tw.vtWork - tc_before.vtWork,
                      vw.vtWork - vc_before.vtWork);
            EXPECT_EQ(target.fallbackCopies(), 0u);
            const std::uint64_t examined = m;
            const bool flat = moved > w / 2;
            EXPECT_EQ(tw.dsWork - tc_before.dsWork,
                      examined + (flat ? w : moved));
        }
    }
}

/**
 * MAZ-shaped stale targets: per-(thread, variable) read clocks and
 * per-variable last-write clocks fall many joins behind their
 * thread's clock, so refreshing them moves large parts of the tree
 * and crosses the cutover both ways. Every clock has a VectorClock
 * twin; vector times and vtWork must agree after every operation.
 */
TEST(TreeClockCopy, StaleTargetSweepMatchesVectorClock)
{
    constexpr std::size_t k = 12;
    constexpr std::size_t vars = 3;
    Rng rng(77);
    WorkCounters tw, vw;
    std::vector<TreeClock> tc_threads;
    std::vector<VectorClock> vc_threads;
    for (std::size_t t = 0; t < k; t++) {
        tc_threads.emplace_back(static_cast<Tid>(t), k);
        vc_threads.emplace_back(static_cast<Tid>(t), k);
    }
    std::vector<TreeClock> tc_reads(k * vars), tc_writes(vars);
    std::vector<VectorClock> vc_reads(k * vars), vc_writes(vars);
    for (auto *fleet : {&tc_threads, &tc_reads, &tc_writes}) {
        for (TreeClock &c : *fleet)
            c.setCounters(&tw);
    }
    for (auto *fleet : {&vc_threads, &vc_reads, &vc_writes}) {
        for (VectorClock &c : *fleet)
            c.setCounters(&vw);
    }

    // Copies whose progressed entries alone exceed half the width:
    // they must have taken the flat path.
    std::uint64_t surely_flat = 0;
    auto refresh = [&](TreeClock &tdst, VectorClock &vdst,
                       std::size_t t, bool check_monotone) {
        const TreeClock &src = tc_threads[t];
        std::size_t progressed = 0;
        for (std::size_t u = 0; u < k; u++) {
            progressed += tdst.rawGet(static_cast<Tid>(u)) <
                          src.rawGet(static_cast<Tid>(u));
        }
        const bool populated = !tdst.empty();
        const std::uint64_t ds_before = tw.dsWork;
        if (check_monotone) {
            tdst.copyCheckMonotone(src);
            vdst.copyCheckMonotone(vc_threads[t]);
        } else {
            tdst.monotoneCopy(src);
            vdst.monotoneCopy(vc_threads[t]);
        }
        if (populated && !check_monotone && progressed > k / 2) {
            surely_flat++;
            EXPECT_GE(tw.dsWork - ds_before, k);
        }
        ASSERT_EQ(tdst.toVector(k), vdst.toVector(k));
        ASSERT_EQ(tdst.checkInvariants(), "") << tdst.toString();
    };

    for (int step = 0; step < 3000; step++) {
        const std::size_t t = rng.below(k);
        tc_threads[t].increment(1);
        vc_threads[t].increment(1);
        const std::uint64_t roll = rng.below(10);
        if (roll < 6) {
            // A message from another thread: the joins that leave
            // the per-variable clocks behind.
            const std::size_t u = rng.below(k);
            if (u != t) {
                tc_threads[t].join(tc_threads[u]);
                vc_threads[t].join(vc_threads[u]);
            }
        } else if (roll < 9) {
            const std::size_t r = t * vars + rng.below(vars);
            refresh(tc_reads[r], vc_reads[r], t, false);
        } else {
            const std::size_t x = rng.below(vars);
            refresh(tc_writes[x], vc_writes[x], t, true);
        }
        ASSERT_EQ(tw.vtWork, vw.vtWork) << "step " << step;
    }

    EXPECT_GT(surely_flat, 0u);
    EXPECT_EQ(tw.fallbackCopies, 0u);
    for (std::size_t t = 0; t < k; t++) {
        EXPECT_EQ(tc_threads[t].toVector(k),
                  vc_threads[t].toVector(k));
    }
}

TEST(TreeClockCopy, RootSwapBetweenEqualViews)
{
    // l is released by t0, acquired+released by t1 with no extra
    // knowledge: the second copy must re-root to t1 even though
    // only t1's entry progressed.
    Sim sim(2, 1);
    sim.sync(0, 0);
    sim.acq(1, 0);
    sim.rel(1, 0);
    sim.acq(0, 0);
    sim.rel(0, 0);
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 0);
    EXPECT_EQ(l0.parentOf(1), 0);
    sim.checkAll();
    EXPECT_EQ(sim.work.fallbackCopies, 0u);
}

} // namespace
} // namespace tc
