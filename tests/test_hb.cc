/**
 * @file
 * HB engine tests: crafted traces with known timestamps/races, and
 * a sweep validating the engine (both clock types) against the
 * independent graph-closure oracle.
 */

#include <gtest/gtest.h>

#include "analysis/oracle.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::collectTimestamps;
using test::runEngine;
using test::SweepCase;

TEST(HbEngine, TimestampsOnMessagePassingIdiom)
{
    Trace t;
    t.write(0, 0);   // 0: t0 writes data
    t.acquire(0, 0); // 1
    t.release(0, 0); // 2: publish
    t.acquire(1, 0); // 3: consume
    t.release(1, 0); // 4
    t.read(1, 0);    // 5: t1 reads data — ordered, no race

    const auto ts = collectTimestamps<HbEngine, TreeClock>(t);
    EXPECT_EQ(ts[0], (std::vector<Clk>{1, 0}));
    EXPECT_EQ(ts[2], (std::vector<Clk>{3, 0}));
    EXPECT_EQ(ts[3], (std::vector<Clk>{3, 1})); // learned t0@3
    EXPECT_EQ(ts[5], (std::vector<Clk>{3, 3}));

    const auto result = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.total(), 0u);
}

TEST(HbEngine, DetectsClassicWriteWriteRace)
{
    Trace t;
    t.write(0, 0);
    t.write(1, 0);
    const auto result = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.total(), 1u);
    EXPECT_EQ(result.races.writeWrite(), 1u);
    ASSERT_EQ(result.races.reports().size(), 1u);
    const RacePair &r = result.races.reports()[0];
    EXPECT_EQ(r.prior, Epoch(0, 1));
    EXPECT_EQ(r.current, Epoch(1, 1));
    EXPECT_EQ(r.var, 0);
}

TEST(HbEngine, HbIgnoresWriteReadOrdering)
{
    // Unlike SHB, HB does not order lw(r) -> r: a later write by the
    // reader's thread still races the original write.
    Trace t;
    t.write(0, 0);  // 0
    t.sync(0, 0);   // publish lock (not acquired by t1!)
    t.read(1, 0);   // wr race
    t.write(1, 0);  // ww race
    const auto result = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.writeRead(), 1u);
    EXPECT_EQ(result.races.writeWrite(), 1u);
}

TEST(HbEngine, LockDisciplineSuppressesRaces)
{
    Trace t;
    for (Tid tid = 0; tid < 3; tid++) {
        t.acquire(tid, 0);
        t.write(tid, 5);
        t.release(tid, 0);
    }
    const auto result = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.total(), 0u);
}

TEST(HbEngine, ForkJoinCreatesOrder)
{
    Trace t(3, 0, 1);
    t.write(0, 0);
    t.fork(0, 1);
    t.write(1, 0); // ordered after parent's write
    t.join(0, 1);
    t.write(0, 0); // ordered after child's write
    const auto result = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.total(), 0u);

    // Without the fork edge the same accesses race.
    Trace t2(3, 0, 1);
    t2.write(0, 0);
    t2.write(1, 0);
    const auto no_fork = runEngine<HbEngine, TreeClock>(t2);
    EXPECT_GT(no_fork.races.total(), 0u);
}

TEST(HbEngine, PoOnlyModeSkipsRaceChecks)
{
    Trace t;
    t.write(0, 0);
    t.write(1, 0);
    EngineConfig cfg;
    cfg.analysis = false;
    const auto result = runEngine<HbEngine, TreeClock>(t, cfg);
    EXPECT_EQ(result.races.total(), 0u);
    EXPECT_EQ(result.events, 2u);
}

TEST(HbEngine, RejectsMalformedTraceWhenValidating)
{
    Trace t;
    t.acquire(0, 0);
    t.acquire(1, 0);
    HbEngine<TreeClock> engine;
    try {
        engine.run(t);
        ADD_FAILURE() << "double acquire accepted";
    } catch (const TraceInputError &err) {
        EXPECT_EQ(err.eventIndex, 1u);
        EXPECT_STREQ(err.what(),
                     "lock 0 acquired while held by thread 0");
    }
}

TEST(HbEngine, ReportCapBoundsReportsNotCounts)
{
    Trace t;
    for (int i = 0; i < 50; i++) {
        t.write(0, 0);
        t.write(1, 0);
    }
    EngineConfig cfg;
    cfg.maxReports = 5;
    const auto result = runEngine<HbEngine, TreeClock>(t, cfg);
    EXPECT_EQ(result.races.reports().size(), 5u);
    EXPECT_GT(result.races.total(), 50u);
}

TEST(HbEngine, ConsumerStateRejectsFlatHistories)
{
    // The HB state ends with the count of the retired flat
    // (pre-epoch) histories. It is always written as 0, so snapshots
    // keep their layout; a non-zero count is corrupt input.
    EngineConfig cfg;
    HbPolicy<TreeClock> policy;
    policy.configure(&cfg, nullptr);
    ByteSink history;
    AccessHistory().serialize(history);

    auto state = [&](std::uint64_t flat) {
        ByteSink out;
        out.putU64(1);
        out.putBytes(history.bytes().data(), history.bytes().size());
        out.putU64(flat);
        for (std::uint64_t i = 0; i < flat; i++) {
            // One empty history: per-thread reads, then writes.
            out.putVec(std::vector<Clk>{});
            out.putVec(std::vector<Clk>{});
        }
        return out.bytes();
    };

    const std::vector<std::uint8_t> clean = state(0);
    ByteSource ok_in(clean);
    EXPECT_TRUE(policy.restoreState(ok_in));
    ByteSink resaved;
    policy.saveState(resaved);
    EXPECT_EQ(resaved.bytes(), clean);

    const std::vector<std::uint8_t> flat = state(1);
    ByteSource flat_in(flat);
    EXPECT_FALSE(policy.restoreState(flat_in));
    EXPECT_FALSE(flat_in.ok());
}

class HbSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
    PoOracle oracle_{trace_, PartialOrderKind::HB};
};

TEST_P(HbSweep, TimestampsMatchOracle)
{
    const auto ts = collectTimestamps<HbEngine, TreeClock>(trace_);
    for (std::size_t i = 0; i < trace_.size(); i++) {
        ASSERT_EQ(ts[i], oracle_.timestampOf(i))
            << "event " << i << ": " << trace_[i].toString();
    }
}

TEST_P(HbSweep, RacesMatchOracle)
{
    for (const bool use_tree : {false, true}) {
        EngineConfig cfg;
        const EngineResult result =
            use_tree ? runEngine<HbEngine, TreeClock>(trace_, cfg)
                     : runEngine<HbEngine, VectorClock>(trace_, cfg);
        // Exact for the epoch-exact kinds; the adaptive read
        // representation may merge subsumed reads, so read-write
        // counts are a lower bound of the oracle's.
        EXPECT_EQ(result.races.writeWrite(),
                  oracle_.races().writeWrite);
        EXPECT_EQ(result.races.writeRead(),
                  oracle_.races().writeRead);
        EXPECT_LE(result.races.readWrite(),
                  oracle_.races().readWrite);
        EXPECT_EQ(result.races.racyVars(), oracle_.races().racyVar);
    }
}

TEST_P(HbSweep, UnorderedConflictingPairsExistIffRacyVars)
{
    // Ground truth cross-check: a variable is racy (engine notion)
    // iff some conflicting pair on it is HB-unordered.
    const auto pairs = oracle_.unorderedConflictingPairs(100000);
    std::vector<bool> racy(
        static_cast<std::size_t>(trace_.numVars()), false);
    for (const auto &[i, j] : pairs)
        racy[static_cast<std::size_t>(trace_[i].var())] = true;
    const auto result = runEngine<HbEngine, TreeClock>(trace_);
    EXPECT_EQ(result.races.racyVars(), racy);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HbSweep, ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
