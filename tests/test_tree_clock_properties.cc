/**
 * @file
 * Property tests for the tree clock: across a parameterized sweep of
 * random traces and all three partial-order algorithms,
 *  - tree clocks and vector clocks produce identical per-event
 *    vector timestamps (drop-in-replacement property),
 *  - every tree clock involved keeps its structural invariants after
 *    every single operation (deepChecks),
 *  - race detection results are identical between the two clock
 *    data structures,
 *  - the MonotoneCopy safety-net fallback never fires under
 *    algorithm usage (paper Lemma 5).
 */

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace tc {
namespace {

using test::collectTimestamps;
using test::runEngine;
using test::SweepCase;

class ClockProperty : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

TEST_P(ClockProperty, HbTimestampsMatchVectorClocks)
{
    const auto vc = collectTimestamps<HbEngine, VectorClock>(trace_);
    EngineConfig cfg;
    cfg.deepChecks = true;
    const auto tcv =
        collectTimestamps<HbEngine, TreeClock>(trace_, cfg);
    ASSERT_EQ(vc.size(), tcv.size());
    for (std::size_t i = 0; i < vc.size(); i++)
        ASSERT_EQ(vc[i], tcv[i]) << "event " << i << ": "
                                 << trace_[i].toString();
}

TEST_P(ClockProperty, ShbTimestampsMatchVectorClocks)
{
    const auto vc = collectTimestamps<ShbEngine, VectorClock>(trace_);
    EngineConfig cfg;
    cfg.deepChecks = true;
    const auto tcv =
        collectTimestamps<ShbEngine, TreeClock>(trace_, cfg);
    for (std::size_t i = 0; i < vc.size(); i++)
        ASSERT_EQ(vc[i], tcv[i]) << "event " << i << ": "
                                 << trace_[i].toString();
}

TEST_P(ClockProperty, MazTimestampsMatchVectorClocks)
{
    const auto vc = collectTimestamps<MazEngine, VectorClock>(trace_);
    EngineConfig cfg;
    cfg.deepChecks = true;
    const auto tcv =
        collectTimestamps<MazEngine, TreeClock>(trace_, cfg);
    for (std::size_t i = 0; i < vc.size(); i++)
        ASSERT_EQ(vc[i], tcv[i]) << "event " << i << ": "
                                 << trace_[i].toString();
}

TEST_P(ClockProperty, RaceResultsIdenticalAcrossClocks)
{
    const auto check = [&](auto vc_result, auto tc_result) {
        EXPECT_EQ(vc_result.races.total(), tc_result.races.total());
        EXPECT_EQ(vc_result.races.writeWrite(),
                  tc_result.races.writeWrite());
        EXPECT_EQ(vc_result.races.writeRead(),
                  tc_result.races.writeRead());
        EXPECT_EQ(vc_result.races.readWrite(),
                  tc_result.races.readWrite());
        EXPECT_EQ(vc_result.races.racyVars(),
                  tc_result.races.racyVars());
    };
    check(runEngine<HbEngine, VectorClock>(trace_),
          runEngine<HbEngine, TreeClock>(trace_));
    check(runEngine<ShbEngine, VectorClock>(trace_),
          runEngine<ShbEngine, TreeClock>(trace_));
    check(runEngine<MazEngine, VectorClock>(trace_),
          runEngine<MazEngine, TreeClock>(trace_));
}

TEST_P(ClockProperty, MonotoneCopyFallbackNeverFires)
{
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    runEngine<HbEngine, TreeClock>(trace_, cfg);
    runEngine<ShbEngine, TreeClock>(trace_, cfg);
    runEngine<MazEngine, TreeClock>(trace_, cfg);
    EXPECT_EQ(w.fallbackCopies, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClockProperty, ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
