/**
 * @file
 * Property tests for the tree clock: across a parameterized sweep of
 * random traces plus the four Figure 10 topologies (chain-shaped
 * trees from lock hand-offs, a wide root at the star's server), and
 * all three partial-order algorithms,
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

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "gen/synthetic.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::collectTimestamps;
using test::runEngine;
using test::SweepCase;

/** One property input: a labelled trace generator. */
struct PropertyCase
{
    std::string label;
    std::function<Trace()> generate;

    friend std::ostream &
    operator<<(std::ostream &os, const PropertyCase &c)
    {
        return os << c.label;
    }
};

std::vector<PropertyCase>
randomCases()
{
    std::vector<PropertyCase> out;
    for (const SweepCase &c : test::standardSweep()) {
        out.push_back({c.label, [params = c.params] {
                           return generateRandomTrace(params);
                       }});
    }
    return out;
}

std::vector<PropertyCase>
topologyCases()
{
    ScenarioParams params;
    params.threads = 32;
    params.events = 4000;
    params.seed = 17;
    const std::pair<Scenario, const char *> kinds[] = {
        {Scenario::SingleLock, "single_lock_32t"},
        {Scenario::SkewedLocks, "skewed_locks_32t"},
        {Scenario::StarTopology, "star_32t"},
        {Scenario::Pairwise, "pairwise_32t"},
    };
    std::vector<PropertyCase> out;
    for (const auto &[scenario, label] : kinds) {
        out.push_back({label, [scenario = scenario, params] {
                           return genScenario(scenario, params);
                       }});
    }
    return out;
}

class ClockProperty : public ::testing::TestWithParam<PropertyCase>
{
  protected:
    Trace trace_ = GetParam().generate();
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

const auto kCaseName =
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        return info.param.label;
    };

INSTANTIATE_TEST_SUITE_P(Sweep, ClockProperty,
                         ::testing::ValuesIn(randomCases()), kCaseName);
INSTANTIATE_TEST_SUITE_P(Topology, ClockProperty,
                         ::testing::ValuesIn(topologyCases()),
                         kCaseName);

} // namespace
} // namespace tc
