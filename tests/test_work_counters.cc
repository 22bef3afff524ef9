/**
 * @file
 * Work-accounting properties from the paper's §4:
 *  - VTWork is a property of the trace, not the data structure
 *    (identical for VC and TC runs),
 *  - VTWork ≥ n (every event performs an increment),
 *  - Theorem 1: TCWork ≤ 3·VTWork for HB on *every* input,
 *  - vector clocks are not vt-optimal: on the star topology their
 *    work exceeds tree clocks' by a growing factor,
 *  - SHB's deep copies are exactly the write-write race count
 *    (the §5.1 bound on CopyCheckMonotone's linear path).
 */

#include <gtest/gtest.h>

#include "gen/synthetic.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::runEngine;
using test::SweepCase;

template <template <typename> class Engine, typename ClockT>
WorkCounters
workOf(const Trace &trace, bool analysis = true)
{
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    cfg.analysis = analysis;
    Engine<ClockT> engine(cfg);
    engine.run(trace);
    return w;
}

class WorkProperty : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

TEST_P(WorkProperty, VtWorkIndependentOfDataStructure)
{
    const auto hb_vc = workOf<HbEngine, VectorClock>(trace_);
    const auto hb_tc = workOf<HbEngine, TreeClock>(trace_);
    EXPECT_EQ(hb_vc.vtWork, hb_tc.vtWork);

    const auto shb_vc = workOf<ShbEngine, VectorClock>(trace_);
    const auto shb_tc = workOf<ShbEngine, TreeClock>(trace_);
    EXPECT_EQ(shb_vc.vtWork, shb_tc.vtWork);

    const auto maz_vc = workOf<MazEngine, VectorClock>(trace_);
    const auto maz_tc = workOf<MazEngine, TreeClock>(trace_);
    EXPECT_EQ(maz_vc.vtWork, maz_tc.vtWork);
}

TEST_P(WorkProperty, VtWorkAtLeastEventCount)
{
    const auto w = workOf<HbEngine, TreeClock>(trace_);
    EXPECT_GE(w.vtWork, trace_.size());
}

TEST_P(WorkProperty, Theorem1TcWorkWithinThreeTimesVtWork)
{
    // Theorem 1 is stated for HB (Algorithm 3); the analysis phase
    // performs no clock operations, so it holds with or without it.
    const auto w = workOf<HbEngine, TreeClock>(trace_);
    EXPECT_LE(w.dsWork, 3 * w.vtWork)
        << "ratio " << w.workRatio();
}

TEST_P(WorkProperty, OperationCountsMatchAcrossClocks)
{
    const auto vc = workOf<ShbEngine, VectorClock>(trace_);
    const auto tcw = workOf<ShbEngine, TreeClock>(trace_);
    EXPECT_EQ(vc.increments, tcw.increments);
    EXPECT_EQ(vc.joins, tcw.joins);
    // Copy op counts match too (CopyCheckMonotone is a copy either
    // way).
    EXPECT_EQ(vc.copies, tcw.copies);
}

TEST_P(WorkProperty, ShbDeepCopiesEqualWriteWriteRaces)
{
    WorkCounters w;
    EngineConfig cfg;
    cfg.counters = &w;
    const auto result = runEngine<ShbEngine, TreeClock>(trace_, cfg);
    EXPECT_EQ(w.deepCopies, result.races.writeWrite());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkProperty, ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

TEST(WorkScenarios, Theorem1HoldsOnAllTopologies)
{
    for (const Scenario s : allScenarios()) {
        ScenarioParams p;
        p.threads = 24;
        p.events = 20000;
        p.seed = 5;
        const Trace trace = genScenario(s, p);
        const auto w = workOf<HbEngine, TreeClock>(trace, false);
        EXPECT_LE(w.dsWork, 3 * w.vtWork) << scenarioName(s);
        EXPECT_GE(w.vtWork, trace.size()) << scenarioName(s);
    }
}

TEST(WorkScenarios, VectorClocksNotVtOptimalOnStar)
{
    // Paper §6 scenario (c): with tree clocks the star topology
    // costs O(1) amortized per event; vector clocks pay Θ(k).
    ScenarioParams p;
    p.threads = 64;
    p.events = 40000;
    p.seed = 9;
    const Trace trace = genStarTopology(p);
    const auto vc = workOf<HbEngine, VectorClock>(trace, false);
    const auto tcw = workOf<HbEngine, TreeClock>(trace, false);
    EXPECT_EQ(vc.vtWork, tcw.vtWork);
    // TC does close-to-minimal work; VC pays ~k per join/copy.
    EXPECT_LT(tcw.dsWork * 4, vc.dsWork)
        << "tc=" << tcw.dsWork << " vc=" << vc.dsWork;
}

TEST(WorkScenarios, JoinFullTouchesMoreThanJoinOnStar)
{
    // joinFull gives up both pruning principles, so replaying the
    // star topology's lock syncs through it must reach the same
    // vector times while touching more entries than the pruned join.
    ScenarioParams p;
    p.threads = 32;
    p.events = 30000;
    p.seed = 13;
    const Trace trace = genStarTopology(p);

    auto replay = [&](bool full) {
        WorkCounters w;
        std::vector<TreeClock> threads, locks(
            static_cast<std::size_t>(trace.numLocks()));
        for (Tid t = 0; t < trace.numThreads(); t++) {
            threads.emplace_back(
                t, static_cast<std::size_t>(trace.numThreads()));
            threads.back().setCounters(&w);
        }
        for (TreeClock &l : locks)
            l.setCounters(&w);
        for (std::size_t i = 0; i < trace.size(); i++) {
            const Event &e = trace[i];
            TreeClock &ct = threads[static_cast<std::size_t>(e.tid)];
            ct.increment(1);
            TreeClock &lock =
                locks[static_cast<std::size_t>(e.lock())];
            if (e.isAcquire() && full)
                ct.joinFull(lock);
            else if (e.isAcquire())
                ct.join(lock);
            else
                lock.monotoneCopy(ct);
        }
        std::vector<std::vector<Clk>> views;
        for (const TreeClock &c : threads)
            views.push_back(c.toVector());
        return std::pair{w, views};
    };

    const auto [join_work, join_views] = replay(false);
    const auto [full_work, full_views] = replay(true);
    EXPECT_EQ(join_views, full_views);
    EXPECT_EQ(join_work.vtWork, full_work.vtWork);
    EXPECT_LT(join_work.dsWork, full_work.dsWork);
}

} // namespace
} // namespace tc
