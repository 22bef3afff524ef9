/**
 * @file
 * Tree clock Join tests, including hand-derived replays of the
 * paper's Figure 2a (direct monotonicity) and Figure 2b (indirect
 * monotonicity) traces. The paper's figures count one tick per
 * sync(l); here sync(l) is acq(l),rel(l) and every event ticks the
 * clock, so the absolute times are doubled while the tree *shapes*
 * match Figure 3.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/tree_clock.hh"

namespace tc {
namespace {

/** Minimal HB driver over raw tree clocks (Algorithm 3 by hand). */
struct Sim
{
    WorkCounters work;
    /** Declared before the clocks, which point into it. */
    ScratchArena arena;
    std::vector<TreeClock> threads;
    std::vector<TreeClock> locks;

    Sim(Tid num_threads, LockId num_locks)
    {
        arena.counters = &work;
        for (Tid t = 0; t < num_threads; t++) {
            threads.emplace_back(
                t, static_cast<std::size_t>(num_threads));
            threads.back().setArena(&arena);
        }
        locks.resize(static_cast<std::size_t>(num_locks));
        for (auto &l : locks)
            l.setArena(&arena);
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

    void
    checkAll()
    {
        for (const auto &c : threads)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
        for (const auto &c : locks)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
    }
};

TEST(TreeClockJoin, TransfersWholeSubtree)
{
    // t0 learns from t1; t2 then learns t0+t1 through one join.
    Sim sim(3, 2);
    sim.sync(1, 0); // t1 publishes on l0
    sim.sync(0, 0); // t0 learns t1
    sim.sync(0, 1); // t0 publishes on l1
    sim.sync(2, 1); // t2 learns t0 and, transitively, t1
    sim.checkAll();

    const TreeClock &c2 = sim.tcOf(2);
    EXPECT_EQ(c2.get(0), 4u); // t0 performed 4 events by its rel(l1)
    EXPECT_EQ(c2.get(1), 2u);
    EXPECT_EQ(c2.get(2), 2u);
    // Transitivity is recorded structurally: t1 hangs below t0.
    EXPECT_EQ(c2.parentOf(0), 2);
    EXPECT_EQ(c2.parentOf(1), 0);
}

TEST(TreeClockJoin, Figure2aDirectMonotonicity)
{
    // Paper Figure 2a: t1 sync(l1); t2 sync(l1); t3 sync(l1);
    // t2 sync(l2); t4 sync(l2); t3 sync(l3); t4 sync(l3).
    // Threads t1..t4 are ids 0..3, locks l1..l3 are 0..2.
    Sim sim(4, 3);
    sim.sync(0, 0);
    sim.sync(1, 0);
    sim.sync(2, 0);
    sim.sync(1, 1);
    sim.sync(3, 1);
    sim.sync(2, 2);

    // Before e7, t4 knows t2@4 (via l2) while l3 carries t3's view
    // with t2@2: direct monotonicity must prune t2's subtree (t1 is
    // never examined).
    const WorkCounters before = sim.work;
    sim.acq(3, 2); // e7's acquire: the join under test
    const std::uint64_t join_ds = sim.work.dsWork - before.dsWork - 1;
    // Root compare + one child examined + one node transplanted:
    // strictly sublinear in k=4 entries.
    EXPECT_LE(join_ds, 3u);
    sim.rel(3, 2);
    sim.checkAll();

    // Figure 3 (left) shape: t2 and t3 are children of t4's root,
    // t1 sits below t2.
    const TreeClock &c4 = sim.tcOf(3);
    EXPECT_EQ(c4.rootTid(), 3);
    EXPECT_EQ(c4.parentOf(2), 3);
    EXPECT_EQ(c4.parentOf(1), 3);
    EXPECT_EQ(c4.parentOf(0), 1);
    // Times: every sync is two events.
    EXPECT_EQ(c4.toVector(4), (std::vector<Clk>{2, 4, 4, 4}));
    // Children of the root in descending attachment order: t3 was
    // attached at time 3 (e7), t2 at time 1 (e5).
    EXPECT_EQ(c4.childrenOf(3), (std::vector<Tid>{2, 1}));
    EXPECT_EQ(c4.aclkOf(2), 3u);
    EXPECT_EQ(c4.aclkOf(1), 1u);
}

TEST(TreeClockJoin, Figure2bIndirectMonotonicity)
{
    // Paper Figure 2b: t1 sync(l1); t2 sync(l1); t2 sync(l2);
    // t3 sync(l2); t4 sync(l2); t3 sync(l3); t4 sync(l3).
    Sim sim(4, 3);
    sim.sync(0, 0);
    sim.sync(1, 0);
    sim.sync(1, 1);
    sim.sync(2, 1);
    sim.sync(3, 1);
    sim.sync(2, 2);

    // e7: t4 rejoins t3's view. t3 has new local progress (e6) but
    // learned t1/t2 before e4, which t4 already absorbed at e5 —
    // indirect monotonicity stops the child scan at t2.
    const WorkCounters before = sim.work;
    sim.acq(3, 2);
    const std::uint64_t join_ds = sim.work.dsWork - before.dsWork - 1;
    EXPECT_LE(join_ds, 3u);
    sim.rel(3, 2);
    sim.checkAll();

    // Figure 3 (right) shape: a chain t4 -> t3 -> t2 -> t1.
    const TreeClock &c4 = sim.tcOf(3);
    EXPECT_EQ(c4.parentOf(2), 3);
    EXPECT_EQ(c4.parentOf(1), 2);
    EXPECT_EQ(c4.parentOf(0), 1);
    EXPECT_EQ(c4.toVector(4), (std::vector<Clk>{2, 4, 4, 4}));
}

TEST(TreeClockJoin, VectorTimesMatchAcrossLongChains)
{
    // A join must carry *all* transitive knowledge: build a chain
    // t0 -> t1 -> ... -> t7 and check the last clock's full vector.
    const Tid k = 8;
    Sim sim(k, k);
    for (Tid t = 0; t < k; t++) {
        if (t > 0)
            sim.sync(t - 1, t - 1); // predecessor publishes
        if (t > 0) {
            sim.acq(t, t - 1);      // t learns everything so far
            sim.rel(t, t - 1);
        }
    }
    sim.checkAll();
    const TreeClock &last = sim.tcOf(k - 1);
    for (Tid t = 0; t + 1 < k; t++)
        EXPECT_GT(last.get(t), 0u) << "t" << t;
}

TEST(TreeClockJoin, RefusesOperandKnowingOurFuture)
{
    TreeClock a(0, 2), b(1, 2);
    a.increment(5);
    b.increment(1);
    b.join(a); // b knows a@5
    a.increment(1);
    // Legal: a@6 now, b only claims a@5.
    a.join(b);
    EXPECT_EQ(a.checkInvariants(), "");
    EXPECT_EQ(a.get(1), 1u);

    // Illegal: craft c claiming a@99. c's own root must progress
    // past a's knowledge of it, or the join early-returns before
    // ever looking at the poisoned subtree.
    TreeClock c(1, 2);
    c.increment(1);
    TreeClock a2(0, 2);
    a2.increment(99);
    c.join(a2);
    c.increment(5);
    EXPECT_DEATH(a.join(c), "future");
}

TEST(TreeClockJoin, JoinRequiresInitializedTarget)
{
    TreeClock aux;
    TreeClock b(1, 2);
    b.increment(1);
    EXPECT_DEATH(aux.join(b), "initialized");
}

TEST(TreeClockJoin, RepeatedPingPongStaysConsistent)
{
    Sim sim(2, 1);
    for (int i = 0; i < 50; i++) {
        sim.sync(0, 0);
        sim.sync(1, 0);
    }
    sim.checkAll();
    // After the last t1 sync, t1 knows all of t0's 100 events.
    EXPECT_EQ(sim.tcOf(1).get(0), 100u);
    EXPECT_EQ(sim.tcOf(1).get(1), 100u);
    // t0 lags by one round trip.
    EXPECT_EQ(sim.tcOf(0).get(1), 98u);
}

} // namespace
} // namespace tc
