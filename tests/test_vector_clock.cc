/**
 * @file
 * Vector clock baseline tests: the §2.2 operations plus work
 * accounting semantics, and the shared copies copyCheckMonotone
 * makes between clocks of one arena.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/vector_clock.hh"

namespace tc {
namespace {

TEST(VectorClock, FreshThreadClockIsZero)
{
    VectorClock c(2, 8);
    EXPECT_EQ(c.ownerTid(), 2);
    EXPECT_EQ(c.localClk(), 0u);
    for (Tid t = 0; t < 8; t++)
        EXPECT_EQ(c.get(t), 0u);
}

TEST(VectorClock, IncrementBumpsOwner)
{
    VectorClock c(1, 4);
    c.increment(1);
    c.increment(2);
    EXPECT_EQ(c.get(1), 3u);
    EXPECT_EQ(c.get(0), 0u);
}

TEST(VectorClock, GetBeyondStorageIsZero)
{
    VectorClock c(0, 2);
    EXPECT_EQ(c.get(100), 0u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a(0, 3), b(1, 3);
    a.increment(5);
    b.increment(7);
    a.join(b);
    EXPECT_EQ(a.toVector(3), (std::vector<Clk>{5, 7, 0}));
    // Join is idempotent.
    a.join(b);
    EXPECT_EQ(a.toVector(3), (std::vector<Clk>{5, 7, 0}));
}

TEST(VectorClock, JoinGrowsStorage)
{
    VectorClock a(0, 1), b(5, 6);
    b.increment(3);
    a.join(b);
    EXPECT_EQ(a.get(5), 3u);
}

TEST(VectorClock, CopyReplacesIncludingDecreases)
{
    VectorClock a(0, 3), b(1, 3);
    a.increment(9);
    b.increment(2);
    a.copyFrom(b); // a's own entry drops from 9 to 0
    EXPECT_EQ(a.toVector(3), (std::vector<Clk>{0, 2, 0}));
}

TEST(VectorClock, LessThanOrEqual)
{
    VectorClock a(0, 2), b(1, 2);
    EXPECT_TRUE(a.lessThanOrEqual(b)); // all-zero ⊑ all-zero
    a.increment(1);
    EXPECT_FALSE(a.lessThanOrEqual(b));
    b.join(a);
    EXPECT_TRUE(a.lessThanOrEqual(b));
    b.increment(1);
    EXPECT_TRUE(a.lessThanOrEqual(b));
    EXPECT_FALSE(b.lessThanOrEqual(a));
}

TEST(VectorClock, AuxiliaryClockEmpty)
{
    VectorClock aux;
    EXPECT_TRUE(aux.empty());
    VectorClock t0(0, 1);
    EXPECT_FALSE(t0.empty());
}

TEST(VectorClock, WorkCountersJoin)
{
    WorkCounters w;
    ScratchArena arena;
    arena.counters = &w;
    VectorClock a(0, 4), b(1, 4);
    a.setArena(&arena);
    b.setArena(&arena);
    a.increment(1); // vt 1, ds 1
    b.increment(1); // vt 1, ds 1
    a.join(b);      // 1 entry changes, 4 touched
    EXPECT_EQ(w.increments, 2u);
    EXPECT_EQ(w.joins, 1u);
    EXPECT_EQ(w.vtWork, 3u);
    EXPECT_EQ(w.dsWork, 6u);
    // A vacuous join still costs Θ(k) in dsWork but no vtWork —
    // exactly the flat-clock weakness the paper targets.
    a.join(b);
    EXPECT_EQ(w.vtWork, 3u);
    EXPECT_EQ(w.dsWork, 10u);
}

TEST(VectorClock, WorkCountersCopy)
{
    WorkCounters w;
    ScratchArena arena;
    arena.counters = &w;
    VectorClock a(0, 4), lock;
    a.setArena(&arena);
    lock.setArena(&arena);
    a.increment(1);
    lock.copyFrom(a);
    EXPECT_EQ(w.copies, 1u);
    EXPECT_EQ(w.vtWork, 2u); // increment + 1 changed entry
}

/** A @p k-wide vector time starting with @p head. */
std::vector<Clk>
vt(std::initializer_list<Clk> head, std::size_t k)
{
    std::vector<Clk> out(head);
    out.resize(k, 0);
    return out;
}

TEST(VectorClockShare, CopiesBetweenTwoJoinsShareOneFrozenCopy)
{
    // Wide enough to share: VectorClock::kShareMinEntries.
    constexpr std::size_t k = 128;
    ScratchArena arena;
    WorkCounters w;
    arena.counters = &w;
    VectorClock t0(0, k), t1(1, k), t2(2, k);
    VectorClock x, y, z;
    for (VectorClock *c : {&t0, &t1, &t2, &x, &y, &z})
        c->setArena(&arena);
    t1.increment(4);
    t0.increment(1);
    t0.join(t1); // content change: t0 learns t1@4

    x.copyCheckMonotone(t0); // t0@1
    t0.increment(1);
    const WorkCounters before = w;
    y.copyCheckMonotone(t0); // t0@2, same entries
    EXPECT_EQ(w.copies, before.copies + 1);
    EXPECT_EQ(w.dsWork, before.dsWork + 1);
    EXPECT_EQ(w.vtWork, before.vtWork);
    EXPECT_EQ(w.deepCopies, 0u);
    EXPECT_NE(x.sharedCopy(), nullptr);
    EXPECT_EQ(x.sharedCopy(), y.sharedCopy());
    EXPECT_EQ(x.get(0), 1u);
    EXPECT_EQ(y.get(0), 2u);
    EXPECT_EQ(x.toVector(k), vt({1, 4}, k));

    // The owner's next content-changing join leaves both intact.
    t1.increment(3);
    t0.increment(1);
    t0.join(t1); // t0@3 learns t1@7
    EXPECT_EQ(x.toVector(k), vt({1, 4}, k));
    EXPECT_EQ(y.toVector(k), vt({2, 4}, k));
    EXPECT_TRUE(y.lessThanOrEqual(t0));
    EXPECT_FALSE(t0.lessThanOrEqual(y));

    // A copy taken after that join freezes t0 anew.
    z.copyCheckMonotone(t0);
    EXPECT_NE(z.sharedCopy(), nullptr);
    EXPECT_NE(z.sharedCopy(), x.sharedCopy());
    EXPECT_EQ(z.toVector(k), vt({3, 7}, k));

    // A join whose operand shares reads it as of its copy; joining
    // into a sharing clock takes its own entries first.
    t2.increment(1);
    t2.join(y);
    EXPECT_EQ(t2.toVector(k), vt({2, 4, 1}, k));
    x.join(t2);
    EXPECT_EQ(x.sharedCopy(), nullptr);
    EXPECT_EQ(x.toVector(k), vt({2, 4, 1}, k));

    // Serialized, a sharing clock is the clock a copy leaves.
    VectorClock copied;
    copied.copyFrom(y);
    ByteSink shared_bytes, copied_bytes;
    y.serialize(shared_bytes);
    copied.serialize(copied_bytes);
    EXPECT_EQ(shared_bytes.bytes(), copied_bytes.bytes());
}

TEST(VectorClockShare, CopiesFromASharingClockReadItsTime)
{
    constexpr std::size_t k = 128;
    ScratchArena arena;
    WorkCounters w;
    arena.counters = &w;
    VectorClock t0(0, k), t1(1, k), x, y;
    for (VectorClock *c : {&t0, &t1, &x, &y})
        c->setArena(&arena);
    t1.increment(4);
    t0.increment(2);
    t0.join(t1); // t0@2 learns t1@4
    x.copyCheckMonotone(t0);
    t0.increment(5); // t0@7; x keeps t0@2

    // A copy of a sharing (ownerless) clock shares the same frozen
    // copy and reads the owner time that clock holds.
    const WorkCounters before = w;
    y.copyCheckMonotone(x);
    EXPECT_EQ(w.copies, before.copies + 1);
    EXPECT_EQ(w.vtWork, before.vtWork);
    EXPECT_NE(y.sharedCopy(), nullptr);
    EXPECT_EQ(y.sharedCopy(), x.sharedCopy());
    EXPECT_EQ(y.get(0), 2u);
    EXPECT_EQ(y.toVector(k), vt({2, 4}, k));
    EXPECT_TRUE(y.lessThanOrEqual(x));
    EXPECT_TRUE(x.lessThanOrEqual(y));

    // It outlives the clock it copied from taking entries back.
    x.copyFrom(t0);
    EXPECT_EQ(x.sharedCopy(), nullptr);
    EXPECT_EQ(y.toVector(k), vt({2, 4}, k));
    VectorClock t2(2, k);
    t2.setArena(&arena);
    t2.join(y);
    EXPECT_EQ(t2.toVector(k), vt({2, 4}, k));
}

TEST(VectorClockShare, MovingToAnotherArenaTakesEntriesBack)
{
    // setArena into another run's context: a sharing clock takes
    // its entries back and credits them to the new arena's counters.
    constexpr std::size_t k = 128;
    ScratchArena arena, other;
    WorkCounters w, ow;
    arena.counters = &w;
    other.counters = &ow;
    VectorClock t0(0, k), x;
    t0.setArena(&arena);
    x.setArena(&arena);
    t0.increment(3);
    x.copyCheckMonotone(t0);
    ASSERT_NE(x.sharedCopy(), nullptr);

    x.setArena(&other);
    EXPECT_EQ(x.sharedCopy(), nullptr);
    EXPECT_EQ(x.toVector(k), t0.toVector(k));
    EXPECT_EQ(ow.clockBytes, k * sizeof(Clk));

    // Clocks of two arenas copy instead of sharing.
    t0.increment(1);
    x.copyCheckMonotone(t0);
    EXPECT_EQ(x.sharedCopy(), nullptr);
    EXPECT_EQ(ow.copies, 1u);
    EXPECT_EQ(x.toVector(k), t0.toVector(k));
}

TEST(VectorClockShare, NarrowSourcesAreCopied)
{
    ScratchArena arena;
    WorkCounters w;
    arena.counters = &w;
    VectorClock t0(0, 64), lw;
    for (VectorClock *c : {&t0, &lw})
        c->setArena(&arena);
    t0.increment(3);
    const WorkCounters before = w;
    lw.copyCheckMonotone(t0); // below kShareMinEntries
    EXPECT_EQ(lw.sharedCopy(), nullptr);
    EXPECT_EQ(lw.toVector(64), t0.toVector(64));
    EXPECT_EQ(w.copies, before.copies + 1);
    EXPECT_EQ(w.vtWork, before.vtWork);
}

TEST(VectorClock, ToVectorPadsToRequestedWidth)
{
    VectorClock a(0, 2);
    a.increment(4);
    const auto v = a.toVector(5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[0], 4u);
    EXPECT_EQ(v[4], 0u);
}

} // namespace
} // namespace tc
