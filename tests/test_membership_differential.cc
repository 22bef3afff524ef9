/**
 * @file
 * Membership differential: on dynamic-membership (pool/task)
 * traces, the tree clock with ThreadIdMap slot recycling must be
 * observationally indistinguishable from the external-indexed
 * vector clock — byte-identical race summaries (counts, racy-var
 * bitmap, and the bounded report buffer, compared through the
 * canonical RaceSummary serialization) for every partial order,
 * straight through and across checkpoint/resume boundaries that
 * cut between create/retire pairs. Work counters are deliberately
 * out of scope: the two
 * representations do different amounts of clock work by design.
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
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/snapshot.hh"

namespace tc {
namespace {

const char *const kPartialOrders[] = {"hb", "shb", "maz"};

PoolWorkloadParams
samplePool(Rng &rng, std::uint64_t seed)
{
    PoolWorkloadParams p;
    p.poolSize = static_cast<Tid>(rng.range(1, 7));
    p.tasks = rng.range(40, 260);
    p.taskEvents = rng.range(4, 12);
    p.locks = static_cast<LockId>(rng.range(1, 5));
    p.vars = static_cast<VarId>(rng.range(4, 40));
    p.syncRatio = 0.1 + 0.001 * static_cast<double>(
                            rng.range(0, 500));
    p.readFraction = 0.3 + 0.001 * static_cast<double>(
                               rng.range(0, 600));
    p.seed = seed;
    return p;
}

/** The canonical byte form of a consumer's race summary. */
std::vector<std::uint8_t>
reportBytes(const EngineResult &result)
{
    ByteSink sink;
    result.races.serialize(sink);
    return sink.bytes();
}

void
expectByteIdentical(const EngineResult &tc, const EngineResult &vc,
                    const std::string &label)
{
    EXPECT_EQ(tc.events, vc.events) << label;
    const auto a = reportBytes(tc), b = reportBytes(vc);
    EXPECT_EQ(a, b) << label << ": TC and VC race summaries "
                    << "diverge (totals " << tc.races.total()
                    << " vs " << vc.races.total() << ")";
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

TEST(MembershipDifferential, StraightRunsAreByteIdentical)
{
    Rng rng(0x9001);
    for (int i = 0; i < 4 * test::depthScale(); i++) {
        const Trace trace = generatePoolWorkload(
            samplePool(rng, 0xabc0 + static_cast<std::uint64_t>(i)));
        for (const char *po : kPartialOrders) {
            AnalysisPipeline pipeline;
            pipeline.add(makeAnalysisConsumer(po, "tc"))
                .add(makeAnalysisConsumer(po, "vc"));
            TraceSource source(trace);
            const auto reports = pipeline.run(source);
            ASSERT_EQ(reports.size(), 2u);
            expectByteIdentical(reports[0].result,
                                reports[1].result,
                                std::string(po) + " iter " +
                                    std::to_string(i));
        }
    }
}

TEST(MembershipDifferential, CheckpointResumeCutsAcrossLifecycle)
{
    const std::string dir = "/tmp/tc_membership_diff";
    Rng rng(0x9002);
    for (int iter = 0; iter < test::depthScale(); iter++) {
        removeDir(dir);
        ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
        const Trace trace = generatePoolWorkload(samplePool(
            rng, 0xdef0 + static_cast<std::uint64_t>(iter)));

        auto add_matrix = [](AnalysisPipeline &pipeline) {
            for (const char *po : kPartialOrders) {
                pipeline.add(makeAnalysisConsumer(po, "tc"));
                pipeline.add(makeAnalysisConsumer(po, "vc"));
            }
        };

        AnalysisPipeline straight;
        add_matrix(straight);
        TraceSource full(trace);
        const auto expected = straight.run(full);

        // A checkpoint cadence that is coprime with the pool
        // rhythm, so cuts land between tcreate/tjoin/tretire of
        // in-flight tasks — exactly the states whose seen-bits,
        // id-map and slot-base vectors must round-trip.
        CheckpointOptions options;
        options.every = rng.range(301, 700);
        options.dir = dir;
        options.keep = 0;

        AnalysisPipeline checkpointed;
        add_matrix(checkpointed);
        TraceSource source(trace);
        checkpointed.beginAll(source.info());
        std::vector<AnalysisReport> reports;
        std::string error;
        ASSERT_TRUE(runWithCheckpoints(checkpointed, source, 0,
                                       options, &reports, &error))
            << error;
        ASSERT_EQ(reports.size(), expected.size());
        for (std::size_t i = 0; i < reports.size(); i += 2)
            expectByteIdentical(reports[i].result,
                                reports[i + 1].result,
                                "checkpointed " + reports[i].name);

        // Resume from every snapshot; the tail must land on the
        // straight-through answer for both clocks.
        const auto snapshots = listSnapshots(dir, "snapshot");
        ASSERT_FALSE(snapshots.empty());
        for (const std::string &snap : snapshots) {
            AnalysisPipeline resumed;
            add_matrix(resumed);
            SnapshotMeta meta;
            ASSERT_TRUE(loadSnapshot(snap, resumed, &meta, &error))
                << snap << ": " << error;
            TraceSource tail(trace);
            ASSERT_TRUE(tail.seekToSequence(meta.position));
            const auto resumed_reports = resumed.drain(tail);
            ASSERT_EQ(resumed_reports.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); i++) {
                EXPECT_EQ(reportBytes(resumed_reports[i].result),
                          reportBytes(expected[i].result))
                    << expected[i].name << " resume@"
                    << meta.position;
            }
        }
        removeDir(dir);
    }
}

} // namespace
} // namespace tc
