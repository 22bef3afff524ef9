/**
 * @file
 * The checkpoint correctness contract, differentially: for every
 * (partial order × clock) analysis, resuming from any snapshot of
 * a checkpointed run — sequential or parallel fan-out — must
 * reproduce the straight-through run exactly: same race totals and
 * kinds, same bounded report buffer, same work counters, resident
 * clock bytes and their peak included. Anything less means a
 * checkpoint dropped or duplicated state.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <dirent.h>
#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/snapshot.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

const char *const kPartialOrders[] = {"hb", "shb", "maz"};
const char *const kClocks[] = {"tc", "vc"};

Trace
sampleTrace(std::uint64_t events, std::uint64_t seed)
{
    RandomTraceParams params;
    params.threads = 8;
    params.locks = 4;
    params.vars = 32;
    params.events = events;
    params.syncRatio = 0.2;
    params.readFraction = 0.6;
    params.forkJoin = true;
    params.seed = seed;
    return generateRandomTrace(params);
}

/** One consumer per (po × clock) pair — the full CLI matrix. */
void
addMatrix(AnalysisPipeline &pipeline)
{
    for (const char *po : kPartialOrders)
        for (const char *clock : kClocks)
            pipeline.add(makeAnalysisConsumer(po, clock));
}

void
expectSameResult(const EngineResult &expected,
                 const EngineResult &actual,
                 const std::string &label)
{
    EXPECT_EQ(expected.events, actual.events) << label;
    EXPECT_EQ(expected.races.total(), actual.races.total())
        << label;
    EXPECT_EQ(expected.races.writeWrite(),
              actual.races.writeWrite())
        << label;
    EXPECT_EQ(expected.races.writeRead(), actual.races.writeRead())
        << label;
    EXPECT_EQ(expected.races.readWrite(), actual.races.readWrite())
        << label;
    EXPECT_EQ(expected.races.racyVarCount(),
              actual.races.racyVarCount())
        << label;
    ASSERT_EQ(expected.races.reports().size(),
              actual.races.reports().size())
        << label;
    for (std::size_t i = 0; i < expected.races.reports().size();
         i++) {
        const RacePair &e = expected.races.reports()[i];
        const RacePair &a = actual.races.reports()[i];
        EXPECT_EQ(e.var, a.var) << label << " report " << i;
        EXPECT_EQ(e.kind, a.kind) << label << " report " << i;
        EXPECT_EQ(e.prior.tid, a.prior.tid)
            << label << " report " << i;
        EXPECT_EQ(e.prior.clk, a.prior.clk)
            << label << " report " << i;
        EXPECT_EQ(e.current.tid, a.current.tid)
            << label << " report " << i;
        EXPECT_EQ(e.current.clk, a.current.clk)
            << label << " report " << i;
    }
    EXPECT_EQ(expected.work.vtWork, actual.work.vtWork) << label;
    EXPECT_EQ(expected.work.dsWork, actual.work.dsWork) << label;
    EXPECT_EQ(expected.work.increments, actual.work.increments)
        << label;
    EXPECT_EQ(expected.work.joins, actual.work.joins) << label;
    EXPECT_EQ(expected.work.copies, actual.work.copies) << label;
    EXPECT_EQ(expected.work.deepCopies, actual.work.deepCopies)
        << label;
    EXPECT_EQ(expected.work.fallbackCopies,
              actual.work.fallbackCopies)
        << label;
    EXPECT_EQ(expected.work.clockBytes, actual.work.clockBytes)
        << label;
    EXPECT_EQ(expected.work.clockBytesPeak,
              actual.work.clockBytesPeak)
        << label;
}

void
expectSameReports(const std::vector<AnalysisReport> &expected,
                  const std::vector<AnalysisReport> &actual,
                  const std::string &label)
{
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t i = 0; i < expected.size(); i++) {
        EXPECT_EQ(expected[i].name, actual[i].name) << label;
        expectSameResult(expected[i].result, actual[i].result,
                         label + " " + expected[i].name);
    }
}

void
removeDir(const std::string &dir)
{
    if (DIR *d = opendir(dir.c_str())) {
        while (const dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(d);
    }
    rmdir(dir.c_str());
}

/**
 * The sweep body: checkpoint a run of the full analysis matrix
 * every @p every events (keeping every snapshot), then resume a
 * fresh pipeline from each snapshot in turn — and from a random
 * one via the directory-scan path — and require the straight-
 * through reports every time.
 */
void
differentialSweep(const std::string &dir, const Trace &trace,
                  std::uint64_t every, bool parallel)
{
    removeDir(dir);
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);

    AnalysisPipeline straight;
    addMatrix(straight);
    TraceSource full(trace);
    const auto expected = straight.run(full);

    CheckpointOptions options;
    options.every = every;
    options.dir = dir;
    options.keep = 0; // keep every snapshot for the sweep
    options.parallel.workers = parallel ? 2 : 0;

    AnalysisPipeline first;
    addMatrix(first);
    TraceSource source(trace);
    first.beginAll(source.info());
    std::vector<AnalysisReport> reports;
    std::string error;
    ASSERT_TRUE(runWithCheckpoints(first, source, 0, options,
                                   &reports, &error))
        << error;
    ASSERT_FALSE(source.failed()) << source.error();
    expectSameReports(expected, reports, "checkpointed run");

    const auto snapshots = listSnapshots(dir, "snapshot");
    ASSERT_FALSE(snapshots.empty());

    // Resume from every snapshot (covers the random choice and
    // then some).
    for (const std::string &snap : snapshots) {
        AnalysisPipeline resumed;
        addMatrix(resumed);
        SnapshotMeta meta;
        ASSERT_TRUE(loadSnapshot(snap, resumed, &meta, &error))
            << snap << ": " << error;
        TraceSource tail(trace);
        ASSERT_TRUE(tail.seekToSequence(meta.position));
        // Keep checkpointing through the tail — resuming a
        // checkpointed run is itself a checkpointed run.
        std::vector<AnalysisReport> tail_reports;
        ASSERT_TRUE(runWithCheckpoints(resumed, tail,
                                       meta.position, options,
                                       &tail_reports, &error))
            << error;
        expectSameReports(expected, tail_reports,
                          "resume@" + std::to_string(meta.position));
    }

    // The production entry point: scan the directory, resume from
    // a randomly damaged-or-not pick (here: the newest).
    {
        AnalysisPipeline resumed;
        addMatrix(resumed);
        ResumeResult rr;
        ASSERT_TRUE(resumeFromDir(dir, "snapshot", "", resumed,
                                  &rr, &error))
            << error;
        ASSERT_TRUE(rr.resumed);
        TraceSource tail(trace);
        ASSERT_TRUE(tail.seekToSequence(rr.position));
        expectSameReports(expected, resumed.drain(tail),
                          "resumeFromDir@" +
                              std::to_string(rr.position));
    }
    removeDir(dir);
}

TEST(SnapshotDifferential, SequentialMatrix)
{
    Rng rng(0xd1ff);
    for (int i = 0; i < test::depthScale(); i++) {
        // A random checkpoint interval that never divides the
        // trace length: the final segment is always partial.
        const std::uint64_t every =
            static_cast<std::uint64_t>(rng.range(301, 900));
        differentialSweep("/tmp/tc_snap_diff_seq",
                          sampleTrace(3000, 0x5eed + i), every, false);
    }
}

TEST(SnapshotDifferential, ParallelFanOutMatrix)
{
    Rng rng(0xd1fe);
    for (int i = 0; i < test::depthScale(); i++) {
        const std::uint64_t every =
            static_cast<std::uint64_t>(rng.range(301, 900));
        differentialSweep("/tmp/tc_snap_diff_par",
                          sampleTrace(3000, 0xfeed + i), every, true);
    }
}

/** A lifecycle trace of 301 threads: vector clocks are wide enough
 * to share, and clocks of retired threads are released, so the
 * resumed gauge must match through both. */
TEST(SnapshotDifferential, PoolWorkloadMatrix)
{
    Rng rng(0xd1fd);
    for (int i = 0; i < test::depthScale(); i++) {
        PoolWorkloadParams params;
        params.tasks = 300;
        params.seed = 0x9001 + static_cast<std::uint64_t>(i);
        const std::uint64_t every =
            static_cast<std::uint64_t>(rng.range(301, 900));
        differentialSweep("/tmp/tc_snap_diff_pool",
                          generatePoolWorkload(params), every, false);
    }
}

/** Resume must also work through the real file-backed sources: a
 * .tcb on disk, opened fresh for the tail, seeked in O(tail). */
TEST(SnapshotDifferential, BinaryFileResume)
{
    const std::string dir = "/tmp/tc_snap_diff_file";
    removeDir(dir);
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
    const std::string path = dir + "/trace.tcb";
    const Trace trace = sampleTrace(2500, 0xbead);
    ASSERT_TRUE(saveTrace(trace, path));

    AnalysisPipeline straight;
    addMatrix(straight);
    TraceSource full(trace);
    const auto expected = straight.run(full);

    CheckpointOptions options;
    options.every = 700;
    options.dir = dir;
    options.keep = 0;

    {
        auto source = openTraceFile(path);
        ASSERT_FALSE(source->failed()) << source->error();
        AnalysisPipeline pipeline;
        addMatrix(pipeline);
        pipeline.beginAll(source->info());
        std::vector<AnalysisReport> reports;
        std::string error;
        ASSERT_TRUE(runWithCheckpoints(pipeline, *source, 0,
                                       options, &reports, &error))
            << error;
        expectSameReports(expected, reports, "file run");
    }

    for (const std::string &snap : listSnapshots(dir, "snapshot")) {
        AnalysisPipeline resumed;
        addMatrix(resumed);
        SnapshotMeta meta;
        std::string error;
        ASSERT_TRUE(loadSnapshot(snap, resumed, &meta, &error))
            << error;
        auto tail = openTraceFile(path);
        ASSERT_TRUE(tail->seekToSequence(meta.position))
            << tail->error();
        expectSameReports(expected, resumed.drain(*tail),
                          "file resume@" +
                              std::to_string(meta.position));
    }
    removeDir(dir);
}

} // namespace
} // namespace tc
