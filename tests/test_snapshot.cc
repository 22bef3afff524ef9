/**
 * @file
 * Snapshot container tests: write → load must restore the exact
 * analysis state (continuing the stream reproduces the
 * straight-through result), the loader must reject unfinalized,
 * truncated, version-skewed or otherwise damaged files, and
 * resumeFromDir must fall back across damaged snapshots down to a
 * clean start without ever loading one of them.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/pipeline.hh"
#include "gen/random_trace.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/snapshot.hh"

namespace tc {
namespace {

Trace
sampleTrace(std::uint64_t events, std::uint64_t seed = 7)
{
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 3;
    params.vars = 24;
    params.events = events;
    params.syncRatio = 0.25;
    params.forkJoin = true;
    params.seed = seed;
    return generateRandomTrace(params);
}

/** Fresh pipeline over the standard two-consumer matrix. */
void
addConsumers(AnalysisPipeline &pipeline)
{
    pipeline.add(makeAnalysisConsumer("hb", "tc"))
        .add(makeAnalysisConsumer("shb", "vc"));
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
}

void
expectSameReports(const std::vector<AnalysisReport> &expected,
                  const std::vector<AnalysisReport> &actual)
{
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); i++) {
        EXPECT_EQ(expected[i].name, actual[i].name);
        expectSameResult(expected[i].result, actual[i].result,
                         expected[i].name);
    }
}

/** rm -rf for one flat test directory. */
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

void
freshDir(const std::string &dir)
{
    removeDir(dir);
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
}

/** Feed the first @p prefix events of @p trace to every consumer
 * (the manual half of a checkpointed run). */
void
feedPrefix(AnalysisPipeline &pipeline, const Trace &trace,
           std::size_t prefix)
{
    for (std::size_t c = 0; c < pipeline.size(); c++)
        for (std::size_t i = 0; i < prefix; i++)
            pipeline.consumer(c).consume(trace[i]);
}

void
corruptByte(const std::string &path, long offset,
            std::uint8_t mask = 0xFF)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    f.seekp(offset);
    f.write(&byte, 1);
}

TEST(Snapshot, WriteLoadContinueMatchesStraightThrough)
{
    const Trace trace = sampleTrace(3000);
    const std::size_t cut = 1700;

    AnalysisPipeline straight;
    addConsumers(straight);
    TraceSource full(trace);
    const auto expected = straight.run(full);

    const std::string dir = "/tmp/tc_snapshot_basic";
    freshDir(dir);
    const std::string path = dir + "/" + snapshotFileName("snapshot", cut);

    AnalysisPipeline writer;
    addConsumers(writer);
    TraceSource source(trace);
    writer.beginAll(source.info());
    feedPrefix(writer, trace, cut);
    std::string error;
    ASSERT_TRUE(
        writeSnapshot(path, writer, cut, source.info(), &error))
        << error;

    SnapshotMeta meta;
    ASSERT_TRUE(readSnapshotMeta(path, &meta, &error)) << error;
    EXPECT_EQ(meta.position, cut);
    EXPECT_EQ(meta.info.threads, source.info().threads);
    EXPECT_EQ(meta.info.vars, source.info().vars);
    ASSERT_EQ(meta.consumers.size(), 2u);
    EXPECT_EQ(meta.consumers[0], "hb/tc");
    EXPECT_EQ(meta.consumers[1], "shb/vc");

    AnalysisPipeline resumed;
    addConsumers(resumed);
    ASSERT_TRUE(loadSnapshot(path, resumed, &meta, &error))
        << error;
    TraceSource tail(trace);
    ASSERT_TRUE(tail.seekToSequence(meta.position));
    expectSameReports(expected, resumed.drain(tail));
    removeDir(dir);
}

TEST(Snapshot, RefusesNonCheckpointableConsumer)
{
    // A consumer without saveState/restoreState cannot be built, so
    // no pipeline can hold one whose state a snapshot would drop.
    class Opaque : public AnalysisConsumer
    {
      public:
        const std::string &name() const override { return name_; }
        void begin(const SourceInfo &) override {}
        void consume(const Event &) override {}
        EngineResult result() const override { return {}; }

      private:
        std::string name_ = "opaque";
    };
    static_assert(std::is_abstract_v<Opaque>);
}

TEST(Snapshot, ListOrdersNewestFirstAndIgnoresJunk)
{
    const std::string dir = "/tmp/tc_snapshot_list";
    freshDir(dir);
    const Trace trace = sampleTrace(300);
    TraceSource source(trace);
    AnalysisPipeline pipeline;
    addConsumers(pipeline);
    pipeline.beginAll(source.info());
    std::string error;
    for (std::uint64_t pos : {40u, 120u, 80u}) {
        ASSERT_TRUE(writeSnapshot(
            dir + "/" + snapshotFileName("snapshot", pos),
            pipeline, pos, source.info(), &error))
            << error;
    }
    // Junk the lister must skip: foreign prefixes, non-numeric
    // positions, leftover temp files from a crashed writer.
    std::ofstream(dir + "/other.00000000000000000001.tcsnap");
    std::ofstream(dir + "/snapshot.notanumber.tcsnap");
    std::ofstream(dir + "/" + snapshotFileName("snapshot", 999) +
                  ".tmp");

    const auto found = listSnapshots(dir, "snapshot");
    ASSERT_EQ(found.size(), 3u);
    EXPECT_NE(found[0].find("120"), std::string::npos);
    EXPECT_NE(found[1].find("80"), std::string::npos);
    EXPECT_NE(found[2].find("40"), std::string::npos);
    removeDir(dir);
}

TEST(Snapshot, RejectsDamage)
{
    const std::string dir = "/tmp/tc_snapshot_damage";
    freshDir(dir);
    const Trace trace = sampleTrace(600);
    TraceSource source(trace);
    AnalysisPipeline pipeline;
    addConsumers(pipeline);
    pipeline.beginAll(source.info());
    feedPrefix(pipeline, trace, 300);
    const std::string good = dir + "/" + snapshotFileName("snapshot", 300);
    std::string error;
    ASSERT_TRUE(
        writeSnapshot(good, pipeline, 300, source.info(), &error))
        << error;

    auto copyTo = [&](const std::string &to) {
        std::ifstream in(good, std::ios::binary);
        std::ofstream out(to, std::ios::binary);
        out << in.rdbuf();
    };
    SnapshotMeta meta;

    // Finalized flag cleared — exactly what a crash between write
    // and the finalize patch leaves behind.
    const std::string unfinalized = dir + "/unfinalized.tcsnap";
    copyTo(unfinalized);
    corruptByte(unfinalized, 12, 0x01);
    EXPECT_FALSE(readSnapshotMeta(unfinalized, &meta, &error));
    EXPECT_NE(error.find("finalized"), std::string::npos) << error;

    // Future format version.
    const std::string skewed = dir + "/skewed.tcsnap";
    copyTo(skewed);
    corruptByte(skewed, 8, 0x10);
    EXPECT_FALSE(readSnapshotMeta(skewed, &meta, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Bad magic.
    const std::string nomagic = dir + "/nomagic.tcsnap";
    copyTo(nomagic);
    corruptByte(nomagic, 0);
    EXPECT_FALSE(readSnapshotMeta(nomagic, &meta, &error));

    // Payload corruption → checksum mismatch.
    const std::string flipped = dir + "/flipped.tcsnap";
    copyTo(flipped);
    corruptByte(flipped, 200);
    EXPECT_FALSE(readSnapshotMeta(flipped, &meta, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;

    // Truncation.
    const std::string truncated = dir + "/truncated.tcsnap";
    copyTo(truncated);
    ASSERT_EQ(truncate(truncated.c_str(), 100), 0);
    EXPECT_FALSE(readSnapshotMeta(truncated, &meta, &error));

    // Consumer-set mismatch: the file is intact but belongs to a
    // different pipeline shape.
    AnalysisPipeline other;
    other.add(makeAnalysisConsumer("maz", "tc"))
        .add(makeAnalysisConsumer("shb", "vc"));
    EXPECT_FALSE(loadSnapshot(good, other, &meta, &error));
    EXPECT_NE(error.find("consumer"), std::string::npos) << error;

    removeDir(dir);
}

TEST(Snapshot, ResumeFallsBackAcrossDamage)
{
    const std::string dir = "/tmp/tc_snapshot_fallback";
    freshDir(dir);
    const Trace trace = sampleTrace(900);
    TraceSource source(trace);

    std::string error;
    for (std::uint64_t pos : {300u, 600u}) {
        AnalysisPipeline writer;
        addConsumers(writer);
        writer.beginAll(source.info());
        feedPrefix(writer, trace, pos);
        ASSERT_TRUE(writeSnapshot(
            dir + "/" + snapshotFileName("snapshot", pos), writer,
            pos, source.info(), &error))
            << error;
    }

    // Newest snapshot damaged: resume must fall back to 300 and
    // say why.
    corruptByte(dir + "/" + snapshotFileName("snapshot", 600), 150);
    {
        AnalysisPipeline pipeline;
        addConsumers(pipeline);
        ResumeResult rr;
        ASSERT_TRUE(resumeFromDir(dir, "snapshot", "", pipeline,
                                  &rr, &error))
            << error;
        EXPECT_TRUE(rr.resumed);
        EXPECT_EQ(rr.position, 300u);
        ASSERT_EQ(rr.diagnostics.size(), 1u);
        EXPECT_NE(rr.diagnostics[0].find("checksum"),
                  std::string::npos)
            << rr.diagnostics[0];
    }

    // Everything damaged: clean start, still a success.
    corruptByte(dir + "/" + snapshotFileName("snapshot", 300), 150);
    {
        AnalysisPipeline pipeline;
        addConsumers(pipeline);
        ResumeResult rr;
        ASSERT_TRUE(resumeFromDir(dir, "snapshot", "", pipeline,
                                  &rr, &error))
            << error;
        EXPECT_FALSE(rr.resumed);
        EXPECT_EQ(rr.diagnostics.size(), 2u);
    }

    // An explicitly named snapshot gets no fallback: hard error.
    {
        AnalysisPipeline pipeline;
        addConsumers(pipeline);
        ResumeResult rr;
        EXPECT_FALSE(resumeFromDir(
            dir, "snapshot",
            dir + "/" + snapshotFileName("snapshot", 600), pipeline,
            &rr, &error));
        EXPECT_FALSE(error.empty());
    }
    removeDir(dir);
}

TEST(Snapshot, RunWithCheckpointsWritesAndPrunes)
{
    const std::string dir = "/tmp/tc_snapshot_ckpt";
    freshDir(dir);
    const Trace trace = sampleTrace(2000);

    AnalysisPipeline straight;
    addConsumers(straight);
    TraceSource full(trace);
    const auto expected = straight.run(full);

    AnalysisPipeline pipeline;
    addConsumers(pipeline);
    TraceSource source(trace);
    pipeline.beginAll(source.info());
    CheckpointOptions options;
    options.every = 400;
    options.dir = dir;
    options.keep = 2;
    std::vector<AnalysisReport> reports;
    std::string error;
    ASSERT_TRUE(runWithCheckpoints(pipeline, source, 0, options,
                                   &reports, &error))
        << error;
    EXPECT_FALSE(source.failed());
    expectSameReports(expected, reports);

    // 400, 800, 1200, 1600 were written; keep=2 leaves the newest
    // two (a snapshot at 2000 is pointless — the run finished).
    const auto kept = listSnapshots(dir, "snapshot");
    ASSERT_EQ(kept.size(), 2u);
    SnapshotMeta meta;
    ASSERT_TRUE(readSnapshotMeta(kept[0], &meta, &error)) << error;
    EXPECT_EQ(meta.position, 1600u);
    ASSERT_TRUE(readSnapshotMeta(kept[1], &meta, &error)) << error;
    EXPECT_EQ(meta.position, 1200u);
    removeDir(dir);
}

TEST(Snapshot, FileNameRoundTrip)
{
    EXPECT_EQ(snapshotFileName("snapshot", 42),
              "snapshot.00000000000000000042.tcsnap");
    EXPECT_TRUE(isSnapshotPath("a/b/c.00000000000000000042.tcsnap"));
    EXPECT_FALSE(isSnapshotPath("a/b/c.tcb"));
    EXPECT_FALSE(isSnapshotPath("a/b/c.tcsnap.tmp"));
}

} // namespace
} // namespace tc
