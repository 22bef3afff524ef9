/**
 * @file
 * Epoch and access-history unit tests (the FastTrack-style machinery
 * of the analysis phase).
 */

#include <gtest/gtest.h>

#include "analysis/access_history.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"

namespace tc {
namespace {

TEST(Epoch, NoneIsCoveredByEverything)
{
    const Epoch none;
    EXPECT_TRUE(none.isNone());
    VectorClock c(0, 2);
    EXPECT_TRUE(none.coveredBy(c));
    EXPECT_EQ(none.toString(), "_");
}

TEST(Epoch, CoveredByChecksEntry)
{
    VectorClock c(0, 3);
    c.increment(5);
    EXPECT_TRUE(Epoch(0, 5).coveredBy(c));
    EXPECT_TRUE(Epoch(0, 3).coveredBy(c));
    EXPECT_FALSE(Epoch(0, 6).coveredBy(c));
    EXPECT_FALSE(Epoch(1, 1).coveredBy(c));
    EXPECT_EQ(Epoch(0, 5).toString(), "5@t0");
}

TEST(Epoch, WorksWithTreeClocksToo)
{
    TreeClock a(0, 3), b(1, 3);
    a.increment(2);
    b.increment(1);
    b.join(a);
    EXPECT_TRUE(Epoch(0, 2).coveredBy(b));
    EXPECT_FALSE(Epoch(0, 3).coveredBy(b));
}

TEST(AccessHistory, ExclusiveReadEpochWhileOrdered)
{
    AccessHistory h;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    h.recordRead(0, 1, c0, 4);
    EXPECT_FALSE(h.sharedReads());

    // t1 has seen t0's read: stays exclusive, epoch transfers.
    c1.increment(1);
    c1.join(c0);
    c1.increment(1);
    h.recordRead(1, 3, c1, 4);
    EXPECT_FALSE(h.sharedReads());
}

TEST(AccessHistory, PromotesToSharedOnConcurrentReads)
{
    AccessHistory h;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    c1.increment(1);
    h.recordRead(0, 1, c0, 4);
    h.recordRead(1, 1, c1, 4); // concurrent with t0's read
    EXPECT_TRUE(h.sharedReads());

    // Both reads must now be visible to the write check.
    TreeClock writer(2, 4);
    writer.increment(1);
    int uncovered = 0;
    h.forEachUncoveredRead(writer, [&](Epoch) { uncovered++; });
    EXPECT_EQ(uncovered, 2);
}

TEST(AccessHistory, SameThreadReReadStaysExclusive)
{
    AccessHistory h;
    TreeClock c0(0, 2);
    c0.increment(1);
    h.recordRead(0, 1, c0, 2);
    c0.increment(1);
    h.recordRead(0, 2, c0, 2);
    EXPECT_FALSE(h.sharedReads());
}

TEST(AccessHistory, ClearReadsResets)
{
    AccessHistory h;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    c1.increment(1);
    h.recordRead(0, 1, c0, 4);
    h.recordRead(1, 1, c1, 4);
    EXPECT_TRUE(h.sharedReads());
    h.clearReads();
    EXPECT_FALSE(h.sharedReads());
    TreeClock writer(2, 4);
    writer.increment(1);
    int uncovered = 0;
    h.forEachUncoveredRead(writer, [&](Epoch) { uncovered++; });
    EXPECT_EQ(uncovered, 0);
}

TEST(AccessHistory, LastWriteEpochStored)
{
    AccessHistory h;
    EXPECT_TRUE(h.lastWrite().isNone());
    h.setLastWrite(Epoch(3, 7));
    EXPECT_EQ(h.lastWrite(), Epoch(3, 7));
}

} // namespace
} // namespace tc
