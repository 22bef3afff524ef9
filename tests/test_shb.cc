/**
 * @file
 * SHB engine tests (Algorithm 4): the last-write-to-read ordering,
 * CopyCheckMonotone behaviour, and a sweep against the oracle.
 */

#include <gtest/gtest.h>

#include "analysis/oracle.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::collectTimestamps;
using test::runEngine;
using test::SweepCase;

TEST(ShbEngine, LastWriteOrdersReader)
{
    // The motivating SHB example: a racy first pair, but the
    // write-to-read ordering prevents the *second* pair from being
    // reported (it is not schedulable without the first race).
    Trace t;
    t.write(0, 0); // 0
    t.read(1, 0);  // 1: races 0 (wr), but SHB then orders 0 -> 1
    t.write(1, 0); // 2: SHB-ordered after 0 via the read: no race
    const auto result = runEngine<ShbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.writeRead(), 1u);
    EXPECT_EQ(result.races.writeWrite(), 0u);

    // HB, lacking the lw edge, reports both.
    const auto hb = runEngine<HbEngine, TreeClock>(t);
    EXPECT_EQ(hb.races.writeRead(), 1u);
    EXPECT_EQ(hb.races.writeWrite(), 1u);
}

TEST(ShbEngine, TimestampsIncludeLastWriteKnowledge)
{
    Trace t;
    t.write(0, 0); // 0: t0@1
    t.read(1, 0);  // 1: t1 learns t0@1 through lw
    const auto ts = collectTimestamps<ShbEngine, TreeClock>(t);
    EXPECT_EQ(ts[1], (std::vector<Clk>{1, 1}));
    // Under HB the read learns nothing.
    const auto hb_ts = collectTimestamps<HbEngine, TreeClock>(t);
    EXPECT_EQ(hb_ts[1], (std::vector<Clk>{0, 1}));
}

TEST(ShbEngine, WriteWriteRaceTriggersDeepCopy)
{
    Trace t;
    t.write(0, 0);
    t.write(1, 0); // unordered second write: lw ̸⊑ C_t1
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    const auto result = runEngine<ShbEngine, TreeClock>(t, cfg);
    EXPECT_EQ(result.races.writeWrite(), 1u);
    EXPECT_EQ(w.deepCopies, 1u);
}

TEST(ShbEngine, ReadRetainsOwnThreadKnowledge)
{
    Trace t;
    t.write(0, 0);  // 0
    t.sync(0, 0);   // 1,2
    t.sync(1, 0);   // 3,4: t1 learns everything
    t.write(1, 0);  // 5: ordered after 0 via lock; no race
    t.read(0, 0);   // 6: lw(=5) ̸⊑ C_t0 — wr race
    const auto result = runEngine<ShbEngine, TreeClock>(t);
    EXPECT_EQ(result.races.writeWrite(), 0u);
    EXPECT_EQ(result.races.writeRead(), 1u);
}

class ShbSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
    PoOracle oracle_{trace_, PartialOrderKind::SHB};
};

TEST_P(ShbSweep, TimestampsMatchOracle)
{
    const auto ts = collectTimestamps<ShbEngine, TreeClock>(trace_);
    for (std::size_t i = 0; i < trace_.size(); i++) {
        ASSERT_EQ(ts[i], oracle_.timestampOf(i))
            << "event " << i << ": " << trace_[i].toString();
    }
}

TEST_P(ShbSweep, RacesMatchOracle)
{
    const auto result = runEngine<ShbEngine, TreeClock>(trace_);
    EXPECT_EQ(result.races.writeWrite(),
              oracle_.races().writeWrite);
    EXPECT_EQ(result.races.writeRead(), oracle_.races().writeRead);
    EXPECT_LE(result.races.readWrite(), oracle_.races().readWrite);
    EXPECT_EQ(result.races.racyVars(), oracle_.races().racyVar);
}

TEST_P(ShbSweep, DeepCopiesBoundedByRaces)
{
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    const auto result = runEngine<ShbEngine, TreeClock>(trace_, cfg);
    EXPECT_EQ(w.deepCopies, result.races.writeWrite());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShbSweep, ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
