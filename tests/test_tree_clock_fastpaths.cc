/**
 * @file
 * Differential tests for the O(1) fast paths of join/monotoneCopy
 * (the "only the root progressed" cases). Every tree clock runs
 * beside a VectorClock twin driven through the same operations, and
 * the twins must agree on vector times, races and vtWork, which pins
 * the fast paths to the flat reference semantics.
 */

#include <gtest/gtest.h>

#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::runEngine;
using test::SweepCase;

/** A tree-clock fleet and its vector-clock twin, in lockstep. */
class Fleet
{
  public:
    Fleet(Tid threads, LockId locks)
    {
        tcArena_.counters = &tcWork_;
        vcArena_.counters = &vcWork_;
        for (Tid t = 0; t < threads; t++) {
            tc_.emplace_back(t, static_cast<std::size_t>(threads));
            vc_.emplace_back(t, static_cast<std::size_t>(threads));
            tc_.back().setArena(&tcArena_);
            vc_.back().setArena(&vcArena_);
        }
        tcLocks_.resize(static_cast<std::size_t>(locks));
        vcLocks_.resize(static_cast<std::size_t>(locks));
        for (auto &l : tcLocks_)
            l.setArena(&tcArena_);
        for (auto &l : vcLocks_)
            l.setArena(&vcArena_);
    }

    void
    acq(Tid t, LockId l)
    {
        tc_[static_cast<std::size_t>(t)].increment(1);
        tc_[static_cast<std::size_t>(t)].join(
            tcLocks_[static_cast<std::size_t>(l)]);
        vc_[static_cast<std::size_t>(t)].increment(1);
        vc_[static_cast<std::size_t>(t)].join(
            vcLocks_[static_cast<std::size_t>(l)]);
    }

    void
    rel(Tid t, LockId l)
    {
        tc_[static_cast<std::size_t>(t)].increment(1);
        tcLocks_[static_cast<std::size_t>(l)].monotoneCopy(
            tc_[static_cast<std::size_t>(t)]);
        vc_[static_cast<std::size_t>(t)].increment(1);
        vcLocks_[static_cast<std::size_t>(l)].monotoneCopy(
            vc_[static_cast<std::size_t>(t)]);
    }

    void
    expectEqualState(const char *where)
    {
        for (std::size_t t = 0; t < tc_.size(); t++) {
            EXPECT_EQ(tc_[t].toVector(tc_.size()),
                      vc_[t].toVector(tc_.size()))
                << where << " thread " << t;
            EXPECT_EQ(tc_[t].checkInvariants(), "")
                << where << " thread " << t;
        }
        for (std::size_t l = 0; l < tcLocks_.size(); l++) {
            EXPECT_EQ(tcLocks_[l].toVector(tc_.size()),
                      vcLocks_[l].toVector(tc_.size()))
                << where << " lock " << l;
            EXPECT_EQ(tcLocks_[l].checkInvariants(), "")
                << where << " lock " << l;
        }
        EXPECT_EQ(tcWork_.vtWork, vcWork_.vtWork) << where;
    }

  private:
    WorkCounters tcWork_, vcWork_;
    /** Declared before the clocks, which point into them. */
    ScratchArena tcArena_, vcArena_;
    std::vector<TreeClock> tc_, tcLocks_;
    std::vector<VectorClock> vc_, vcLocks_;
};

TEST(FastPaths, RepeatedSelfSyncHitsCopyFastPath)
{
    // One thread re-syncing its own lock: after the first release
    // every copy is the root-only fast path; every acquire is the
    // vacuous-join fast path.
    WorkCounters w;
    ScratchArena arena;
    arena.counters = &w;
    TreeClock ct(0, 4);
    TreeClock lock;
    ct.setArena(&arena);
    lock.setArena(&arena);

    ct.increment(1);
    ct.join(lock);
    ct.increment(1);
    lock.monotoneCopy(ct); // deep copy (first population)
    const std::uint64_t after_first = w.dsWork;

    for (int i = 0; i < 100; i++) {
        ct.increment(1);
        ct.join(lock); // vacuous
        ct.increment(1);
        lock.monotoneCopy(ct); // root-only fast path
    }
    // Each round: 2 increments (2) + vacuous join (1) + fast copy
    // (2) = 5 dsWork; anything more means a fast path regressed.
    EXPECT_LE(w.dsWork - after_first, 100u * 5u);
    EXPECT_EQ(lock.localClk(), ct.localClk());
    EXPECT_EQ(lock.checkInvariants(), "");
}

TEST(FastPaths, JoinFastPathMatchesGenericResult)
{
    // t1 publishes one new event; t0's join should take the
    // root-only fast path and produce exactly the generic result.
    TreeClock a(0, 4), b(1, 4), c(2, 4);
    c.increment(2);
    b.increment(1);
    b.join(c);
    a.increment(1);
    a.join(b); // generic: transplants b and c
    b.increment(1);
    a.join(b); // only b's root progressed: fast path eligible
    EXPECT_EQ(a.toVector(4), (std::vector<Clk>{1, 2, 2, 0}));
    EXPECT_EQ(a.parentOf(1), 0);
    EXPECT_EQ(a.checkInvariants(), "");
}

TEST(FastPaths, LockstepRandomScheduleAgrees)
{
    // Drive both clock types through an identical random lock
    // schedule and compare full state repeatedly.
    Rng rng(2024);
    const Tid threads = 12;
    const LockId locks = 6;
    Fleet fleet(threads, locks);

    std::vector<Tid> holder(static_cast<std::size_t>(locks), kNoTid);
    std::vector<LockId> held(static_cast<std::size_t>(threads),
                             kNoTid);
    for (int step = 0; step < 4000; step++) {
        const Tid t = static_cast<Tid>(
            rng.below(static_cast<std::uint64_t>(threads)));
        if (held[static_cast<std::size_t>(t)] != kNoTid) {
            const LockId l = held[static_cast<std::size_t>(t)];
            fleet.rel(t, l);
            holder[static_cast<std::size_t>(l)] = kNoTid;
            held[static_cast<std::size_t>(t)] = kNoTid;
        } else {
            const LockId l = static_cast<LockId>(
                rng.below(static_cast<std::uint64_t>(locks)));
            if (holder[static_cast<std::size_t>(l)] == kNoTid) {
                fleet.acq(t, l);
                holder[static_cast<std::size_t>(l)] = t;
                held[static_cast<std::size_t>(t)] = l;
            }
        }
        if (step % 500 == 0)
            fleet.expectEqualState("mid-run");
    }
    fleet.expectEqualState("final");
}

class FastPathSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

/** One engine run over @p trace with its work counted. */
template <template <typename> class Engine, typename ClockT>
EngineResult
countedRun(const Trace &trace)
{
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    return runEngine<Engine, ClockT>(trace, cfg);
}

TEST_P(FastPathSweep, AgreesWithVectorClockOnAllEngines)
{
    auto check = [](const EngineResult &tree, const EngineResult &flat,
                    const char *po) {
        EXPECT_EQ(tree.races.total(), flat.races.total()) << po;
        EXPECT_EQ(tree.races.racyVars(), flat.races.racyVars()) << po;
        EXPECT_EQ(tree.work.vtWork, flat.work.vtWork) << po;
    };
    check(countedRun<HbEngine, TreeClock>(trace_),
          countedRun<HbEngine, VectorClock>(trace_), "hb");
    check(countedRun<ShbEngine, TreeClock>(trace_),
          countedRun<ShbEngine, VectorClock>(trace_), "shb");
    check(countedRun<MazEngine, TreeClock>(trace_),
          countedRun<MazEngine, VectorClock>(trace_), "maz");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastPathSweep,
    ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
