/**
 * @file
 * Trace model tests: builder, conflict predicate, local times, and
 * well-formedness validation including failure injection.
 */

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace tc {
namespace {

TEST(Event, Helpers)
{
    const Event r(0, OpType::Read, 5);
    const Event w(1, OpType::Write, 5);
    const Event a(0, OpType::Acquire, 2);
    EXPECT_TRUE(r.isRead());
    EXPECT_TRUE(r.isAccess());
    EXPECT_FALSE(r.isSync());
    EXPECT_TRUE(a.isSync());
    EXPECT_EQ(r.var(), 5);
    EXPECT_EQ(a.lock(), 2);
    EXPECT_EQ(w.toString(), "t1:w(x5)");
}

TEST(Event, ConflictPredicate)
{
    const Event r0(0, OpType::Read, 5);
    const Event r1(1, OpType::Read, 5);
    const Event w1(1, OpType::Write, 5);
    const Event w1_other(1, OpType::Write, 6);
    const Event w0(0, OpType::Write, 5);
    EXPECT_FALSE(conflicting(r0, r1));     // two reads never conflict
    EXPECT_TRUE(conflicting(r0, w1));      // read-write same var
    EXPECT_TRUE(conflicting(w0, w1));      // write-write same var
    EXPECT_FALSE(conflicting(w0, w1_other)); // different var
    EXPECT_FALSE(conflicting(w1, w1));     // same thread
    const Event acq(0, OpType::Acquire, 5);
    EXPECT_FALSE(conflicting(acq, w1));    // sync events don't conflict
}

TEST(Trace, BuilderGrowsIdSpaces)
{
    Trace t;
    t.read(3, 7);
    t.acquire(1, 4);
    t.release(1, 4);
    EXPECT_EQ(t.numThreads(), 4);
    EXPECT_EQ(t.numVars(), 8);
    EXPECT_EQ(t.numLocks(), 5);
    EXPECT_EQ(t.size(), 3u);
}

TEST(Trace, BuilderAcceptsTheLargestReaderId)
{
    constexpr auto kLast = static_cast<Tid>(kMaxEventId);
    Trace t;
    t.read(kLast, static_cast<VarId>(kMaxEventId));
    t.fork(0, kLast);
    EXPECT_EQ(t.numThreads(), kLast + 1);
    EXPECT_EQ(t.numVars(), static_cast<VarId>(kMaxEventId) + 1);
}

TEST(TraceDeathTest, BuilderRejectsIdsTheReadersReject)
{
    // 2^31 - 1 is one past kMaxEventId: its id space would not fit a
    // signed 32-bit width.
    constexpr Tid kPast = 0x7FFFFFFF;
    const char *msg = "event id out of range";
    EXPECT_DEATH({ Trace t; t.read(kPast, 0); }, msg);
    EXPECT_DEATH({ Trace t; t.write(0, kPast); }, msg);
    EXPECT_DEATH({ Trace t; t.acquire(0, kPast); }, msg);
    EXPECT_DEATH({ Trace t; t.fork(0, kPast); }, msg);
    EXPECT_DEATH({ Trace t; t.tcreate(0, kPast); }, msg);
    // A variable id of 2^31 or more reads back as a negative VarId.
    EXPECT_DEATH(
        {
            Trace t;
            t.push(Event(0, OpType::Read, 0x80000000u));
        },
        msg);
    const Event bulk[] = {Event(0, OpType::Read, 0),
                          Event(1, OpType::Release, 0xFFFFFFFFu)};
    EXPECT_DEATH({ Trace t; t.append(bulk, 2); }, msg);
}

TEST(Trace, LocalTimesCountPerThread)
{
    Trace t;
    t.write(0, 0); // t0 time 1
    t.write(1, 0); // t1 time 1
    t.write(0, 1); // t0 time 2
    t.write(0, 2); // t0 time 3
    t.write(1, 1); // t1 time 2
    const auto lt = t.localTimes();
    EXPECT_EQ(lt, (std::vector<Clk>{1, 1, 2, 3, 2}));
}

TEST(Trace, SyncHelperEmitsAcquireRelease)
{
    Trace t;
    t.sync(0, 1);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_TRUE(t[0].isAcquire());
    EXPECT_TRUE(t[1].isRelease());
    EXPECT_TRUE(t.validate().ok);
}

TEST(TraceValidate, AcceptsWellFormed)
{
    Trace t;
    t.acquire(0, 0);
    t.write(0, 0);
    t.release(0, 0);
    t.acquire(1, 0);
    t.read(1, 0);
    t.release(1, 0);
    const auto v = t.validate();
    EXPECT_TRUE(v.ok) << v.message;
}

TEST(TraceValidate, RejectsDoubleAcquire)
{
    Trace t;
    t.acquire(0, 0);
    t.acquire(1, 0); // lock 0 already held by t0
    const auto v = t.validate();
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.eventIndex, 1u);
}

TEST(TraceValidate, RejectsReentrantAcquire)
{
    Trace t;
    t.acquire(0, 0);
    t.acquire(0, 0); // even by the holder itself
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, RejectsForeignRelease)
{
    Trace t;
    t.acquire(0, 0);
    t.release(1, 0);
    const auto v = t.validate();
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.eventIndex, 1u);
}

TEST(TraceValidate, RejectsReleaseOfFreeLock)
{
    Trace t;
    t.release(0, 0);
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, RejectsForkOfStartedThread)
{
    Trace t;
    t.write(1, 0);
    t.fork(0, 1); // thread 1 already has events
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, RejectsDoubleFork)
{
    Trace t(3, 0, 1);
    t.fork(0, 1);
    t.fork(2, 1);
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, RejectsSelfFork)
{
    Trace t;
    t.fork(0, 0);
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, RejectsActionAfterJoin)
{
    Trace t;
    t.write(1, 0);
    t.join(0, 1);
    t.write(1, 0); // thread 1 already joined
    const auto v = t.validate();
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.eventIndex, 2u);
}

TEST(TraceValidate, RejectsDoubleJoin)
{
    Trace t;
    t.write(1, 0);
    t.join(0, 1);
    t.join(0, 1);
    EXPECT_FALSE(t.validate().ok);
}

TEST(TraceValidate, AcceptsForkJoinLifecycle)
{
    Trace t(3, 1, 1);
    t.fork(0, 1);
    t.fork(0, 2);
    t.write(1, 0);
    t.sync(2, 0);
    t.join(0, 1);
    t.join(0, 2);
    const auto v = t.validate();
    EXPECT_TRUE(v.ok) << v.message;
}

TEST(TraceValidate, EmptyTraceIsValid)
{
    Trace t;
    EXPECT_TRUE(t.validate().ok);
}

} // namespace
} // namespace tc
