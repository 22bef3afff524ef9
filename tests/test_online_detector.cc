/**
 * @file
 * Online detector tests: event-by-event feeding must match the
 * batch HB engine exactly; id spaces grow on demand; malformed
 * feeds abort; results are queryable mid-stream.
 */

#include <gtest/gtest.h>

#include "analysis/online_detector.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::runEngine;
using test::SweepCase;

TEST(OnlineDetector, DetectsRaceAsItHappens)
{
    OnlineRaceDetector<TreeClock> detector;
    detector.write(0, 0);
    EXPECT_EQ(detector.races().total(), 0u);
    detector.write(1, 0);
    EXPECT_EQ(detector.races().total(), 1u);
    EXPECT_EQ(detector.races().writeWrite(), 1u);
    EXPECT_EQ(detector.eventsProcessed(), 2u);
}

TEST(OnlineDetector, LockDisciplineSuppresses)
{
    OnlineRaceDetector<TreeClock> detector;
    for (Tid t = 0; t < 4; t++) {
        detector.acquire(t, 0);
        detector.write(t, 7);
        detector.release(t, 0);
    }
    EXPECT_EQ(detector.races().total(), 0u);
}

TEST(OnlineDetector, IdSpacesGrowOnDemand)
{
    OnlineRaceDetector<TreeClock> detector;
    detector.write(0, 5);
    detector.write(100, 5000); // far beyond anything seen
    EXPECT_GE(detector.threadsSeen(), 101);
    // The two writes touch different vars: no race.
    EXPECT_EQ(detector.races().total(), 0u);
    detector.write(3, 5); // races thread 0's write
    EXPECT_EQ(detector.races().total(), 1u);
}

TEST(OnlineDetector, ForkJoinEdges)
{
    OnlineRaceDetector<TreeClock> detector;
    detector.write(0, 0);
    detector.fork(0, 1);
    detector.write(1, 0);
    detector.join(0, 1);
    detector.write(0, 0);
    EXPECT_EQ(detector.races().total(), 0u);
}

TEST(OnlineDetector, ViewOfExposesVectorTime)
{
    OnlineRaceDetector<TreeClock> detector;
    detector.acquire(0, 0);
    detector.release(0, 0);
    detector.acquire(1, 0);
    const auto view = detector.viewOf(1);
    EXPECT_EQ(view[0], 2u); // learned t0's two events
    EXPECT_EQ(view[1], 1u);
}

TEST(OnlineDetector, LockViolationsThrowInputErrors)
{
    // The event's index and Trace::validate()'s message, so a caller
    // can report a bad feed exactly like a bad materialized trace.
    OnlineRaceDetector<TreeClock> detector;
    detector.acquire(0, 0);
    try {
        detector.acquire(1, 0);
        ADD_FAILURE() << "double acquire accepted";
    } catch (const TraceInputError &err) {
        EXPECT_EQ(err.eventIndex, 1u);
        EXPECT_STREQ(err.what(),
                     "lock 0 acquired while held by thread 0");
    }
    OnlineRaceDetector<TreeClock> detector2;
    try {
        detector2.release(0, 0);
        ADD_FAILURE() << "release of a free lock accepted";
    } catch (const TraceInputError &err) {
        EXPECT_EQ(err.eventIndex, 0u);
        EXPECT_STREQ(err.what(),
                     "lock 0 released by thread 0 but held by -1");
    }
}

TEST(OnlineDetector, PoOnlyModeSkipsRaces)
{
    EngineConfig cfg;
    cfg.analysis = false;
    OnlineRaceDetector<TreeClock> detector(cfg);
    detector.write(0, 0);
    detector.write(1, 0);
    EXPECT_EQ(detector.races().total(), 0u);
    EXPECT_EQ(detector.eventsProcessed(), 2u);
}

class OnlineSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

TEST_P(OnlineSweep, MatchesBatchEngineExactly)
{
    const auto batch = runEngine<HbEngine, TreeClock>(trace_);

    OnlineRaceDetector<TreeClock> online;
    for (const Event &e : trace_)
        online.feed(e);

    EXPECT_EQ(online.races().total(), batch.races.total());
    EXPECT_EQ(online.races().writeWrite(),
              batch.races.writeWrite());
    EXPECT_EQ(online.races().writeRead(), batch.races.writeRead());
    EXPECT_EQ(online.races().readWrite(), batch.races.readWrite());
    // racyVars vectors may differ in declared width (online grows
    // lazily); compare the racy id sets.
    for (VarId x = 0; x < trace_.numVars(); x++) {
        const bool online_racy =
            static_cast<std::size_t>(x) <
                online.races().racyVars().size() &&
            online.races().isVarRacy(x);
        EXPECT_EQ(online_racy, batch.races.isVarRacy(x))
            << "x" << x;
    }
}

TEST_P(OnlineSweep, ClockTypesAgreeOnline)
{
    OnlineRaceDetector<TreeClock> tree;
    OnlineRaceDetector<VectorClock> flat;
    for (const Event &e : trace_) {
        tree.feed(e);
        flat.feed(e);
    }
    EXPECT_EQ(tree.races().total(), flat.races().total());
    EXPECT_EQ(tree.eventsProcessed(), flat.eventsProcessed());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OnlineSweep, ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
