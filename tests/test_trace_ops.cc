/**
 * @file
 * Trace transformation tests: slicing, projection, prefixes and
 * renumbering — including the semantic guarantee that a variable
 * slice preserves the partial order and the races on the kept
 * variables.
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"
#include "trace/trace_ops.hh"

namespace tc {
namespace {

using test::runEngine;

Trace
mixedTrace()
{
    Trace t(4, 2, 5);
    t.fork(0, 1);
    t.write(0, 0);
    t.acquire(0, 0);
    t.write(0, 2);
    t.release(0, 0);
    t.read(1, 0);
    t.write(1, 3);
    t.acquire(2, 1);
    t.read(2, 2);
    t.release(2, 1);
    t.write(3, 4);
    t.join(0, 1);
    return t;
}

TEST(TraceOps, SliceKeepsSyncAndSelectedVars)
{
    const Trace t = mixedTrace();
    const Trace s = sliceByVars(t, {0});
    EXPECT_TRUE(s.validate().ok);
    for (const Event &e : s) {
        if (e.isAccess()) {
            EXPECT_EQ(e.var(), 0);
        }
    }
    // All 6 sync events survive, plus the two var-0 accesses.
    EXPECT_EQ(s.size(), 8u);
}

TEST(TraceOps, SlicePreservesRacesOnKeptVars)
{
    RandomTraceParams params;
    params.threads = 8;
    params.locks = 4;
    params.vars = 24;
    params.events = 3000;
    params.syncRatio = 0.25;
    params.seed = 404;
    const Trace t = generateRandomTrace(params);
    const auto full = runEngine<HbEngine, TreeClock>(t);

    for (VarId x = 0; x < 6; x++) {
        const Trace s = sliceByVars(t, {x});
        const auto sliced = runEngine<HbEngine, TreeClock>(s);
        EXPECT_EQ(sliced.races.isVarRacy(x), full.races.isVarRacy(x))
            << "x" << x;
    }
}

TEST(TraceOps, ProjectThreadsDropsOthersConsistently)
{
    const Trace t = mixedTrace();
    const Trace p = projectThreads(t, {0, 2});
    EXPECT_TRUE(p.validate().ok) << p.validate().message;
    for (const Event &e : p) {
        EXPECT_TRUE(e.tid == 0 || e.tid == 2);
        // fork/join to dropped thread 1 must be gone.
        EXPECT_FALSE(e.isFork());
        EXPECT_FALSE(e.isJoin());
    }
}

TEST(TraceOps, ProjectKeepsForkEdgesInsideSubset)
{
    Trace t(3, 0, 1);
    t.fork(0, 1);
    t.write(1, 0);
    t.write(2, 0);
    t.join(0, 1);
    const Trace p = projectThreads(t, {0, 1});
    EXPECT_TRUE(p.validate().ok);
    EXPECT_EQ(p.size(), 3u); // fork, t1 write, join
    EXPECT_TRUE(p[0].isFork());
    EXPECT_TRUE(p[2].isJoin());
}

TEST(TraceOps, PrefixIsWellFormed)
{
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 3;
    params.vars = 16;
    params.events = 2000;
    params.syncRatio = 0.4;
    params.seed = 17;
    const Trace t = generateRandomTrace(params);
    for (const std::size_t n : {0ul, 1ul, 17ul, 500ul, t.size()}) {
        const Trace p = prefix(t, n);
        EXPECT_EQ(p.size(), std::min(n, t.size()));
        EXPECT_TRUE(p.validate().ok) << "prefix " << n;
    }
    // Overlong prefix clamps.
    EXPECT_EQ(prefix(t, t.size() + 100).size(), t.size());
}

TEST(TraceOps, RenumberCompactsSparseIds)
{
    Trace t(10, 10, 10);
    t.write(2, 7);
    t.sync(5, 3);
    t.read(2, 9);
    IdRemap remap;
    const Trace d = renumberDense(t, &remap);
    EXPECT_EQ(d.numThreads(), 2);
    EXPECT_EQ(d.numLocks(), 1);
    EXPECT_EQ(d.numVars(), 2);
    EXPECT_TRUE(d.validate().ok);
    // Mapping back: new thread 0 was old 2, new var 1 was old 9.
    EXPECT_EQ(remap.threads, (std::vector<Tid>{2, 5}));
    EXPECT_EQ(remap.locks, (std::vector<LockId>{3}));
    EXPECT_EQ(remap.vars, (std::vector<VarId>{7, 9}));
    EXPECT_EQ(d[0].tid, 0);
    EXPECT_EQ(d[0].var(), 0);
    EXPECT_EQ(d[3].var(), 1);
}

TEST(TraceOps, RenumberPreservesAnalysis)
{
    Trace t(32, 8, 64);
    t.write(20, 50);
    t.write(21, 50); // race
    t.sync(20, 5);
    const Trace d = renumberDense(t, nullptr);
    const auto before = runEngine<HbEngine, TreeClock>(t);
    const auto after = runEngine<HbEngine, TreeClock>(d);
    EXPECT_EQ(before.races.total(), after.races.total());
}

TEST(TraceOps, SliceOutOfRangeVarDies)
{
    const Trace t = mixedTrace();
    EXPECT_DEATH(sliceByVars(t, {99}), "out of range");
}

} // namespace
} // namespace tc
