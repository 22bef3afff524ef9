/**
 * @file
 * Backward compatibility against committed fixtures in
 * tests/fixtures/ — real files written by older binaries, never
 * regenerated. Pre-lifecycle (format v1) ones:
 *
 *   golden_v1.tcb       binary trace, "TCTB1" magic
 *   golden_v1.tct       the same trace, v1 text
 *   golden_v1.{0,1,2}.tcs  the same trace as a 3-shard capture set
 *   golden_v1.tcsnap    mid-stream checkpoint of the full
 *                       (hb,shb,maz) × (tc,vc) analysis matrix
 *   golden_v1.shard_analysis_w2.tcsnap
 *                       event-500 checkpoint of hb/tc and shb/tc
 *                       written by the retired two-worker sharded
 *                       analysis (--shard-analysis=2)
 *
 * and one from the last build whose tree-clock records were 24
 * bytes (with a parent field):
 *
 *   golden_v2.tcsnap    event-1500 checkpoint of the same matrix
 *                       over golden_v1.tcb (`--stream
 *                       --checkpoint-every=1500`): driver state
 *                       version 2, tree-clock gauges at 24 B/slot
 *
 * The suite pins five contracts: every v1 container still decodes
 * to the identical event stream with the identical analysis
 * results (hardcoded from the pre-bump run), today's split still
 * writes the committed shard bytes, v1 and v2 snapshots still
 * resume to the straight run's result, today's checkpoint keeps
 * the v2 clock columns byte for byte, and version mismatches and
 * stale sharded snapshots are rejected as corrupt input —
 * including by the CLIs, whose exit code 3 is scripted against.
 *
 * The committed SHB and MAZ states carry work counters accumulated
 * while per-variable clocks copied; they now share (a share counts
 * vtWork 0), so for those analyses the resumed tail's vtWork is
 * compared with the straight run's over the same events, and
 * today's SHB and MAZ sections are held to resuming to the straight
 * run rather than to the fixture's bytes.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "test_helpers.hh"
#include "trace/shard.hh"
#include "trace/snapshot.hh"
#include "trace/trace_io.hh"

#ifndef TC_FIXTURE_DIR
#error "TC_FIXTURE_DIR must point at tests/fixtures"
#endif

namespace tc {
namespace {

const std::string kDir = TC_FIXTURE_DIR;

/** The pre-bump analysis results of the golden trace, copied from
 * tests/fixtures/golden_v1.report.txt (which the pre-bump
 * race_detector wrote). Any drift here is a silent change in how
 * v1 inputs are decoded or analyzed. */
struct GoldenCounts
{
    const char *po;
    std::uint64_t total, ww, wr, rw, racyVars;
};
constexpr GoldenCounts kGolden[] = {
    {"hb", 2262, 410, 1007, 845, 62},
    {"shb", 1683, 281, 677, 725, 62},
    {"maz", 1384, 225, 563, 596, 58},
};

Trace
loadGoldenBinary()
{
    ParseResult r = loadTrace(kDir + "/golden_v1.tcb");
    EXPECT_TRUE(r.ok) << r.message;
    return std::move(r.trace);
}

/** Run @p command through the shell; its stdout and stderr land in
 * @p output when given. Returns the exit code (-1 on abnormal
 * termination). */
int
runCli(const std::string &command, std::string *output = nullptr)
{
    const std::string sink = "/tmp/tc_compat_cli.txt";
    const int status = std::system(
        (command + " > " + (output ? sink : "/dev/null") + " 2>&1")
            .c_str());
    if (output) {
        std::ifstream in(sink, std::ios::binary);
        output->assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
        std::remove(sink.c_str());
    }
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(FormatCompat, FixturesAreGenuinelyV1)
{
    std::ifstream in(kDir + "/golden_v1.tcb", std::ios::binary);
    ASSERT_TRUE(in.good());
    char magic[6] = {};
    in.read(magic, sizeof(magic));
    EXPECT_EQ(std::string(magic, 5), "TCTB1")
        << "fixture was regenerated with a v2 writer — restore "
           "the committed pre-bump file";

    std::ifstream text(kDir + "/golden_v1.tct");
    std::string first;
    std::getline(text, first);
    EXPECT_NE(first, "# treeclock trace v2")
        << "text fixture was regenerated with a v2 writer";
}

TEST(FormatCompat, AllV1ContainersDecodeIdentically)
{
    const Trace golden = loadGoldenBinary();
    ASSERT_EQ(golden.size(), 3998u);
    EXPECT_FALSE(golden.hasLifecycle());

    ParseResult text = loadTrace(kDir + "/golden_v1.tct");
    ASSERT_TRUE(text.ok) << text.message;
    ASSERT_EQ(text.trace.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); i++)
        ASSERT_EQ(text.trace[i], golden[i]) << "event " << i;

    auto shards = openShardSet(kDir + "/golden_v1");
    ASSERT_NE(shards, nullptr);
    EXPECT_FALSE(shards->info().lifecycle);
    test::expectSameEvents(golden, *shards, "v1 shard set");
}

TEST(FormatCompat, SplitWritesTheCommittedShardBytes)
{
    // The committed set came from an earlier shard writer; today's
    // split must reproduce it byte for byte — headers, stamps and
    // routing — both as a library call and through the CLI.
    const std::string prefix = "/tmp/tc_compat_golden_split";
    auto source = openTraceFile(kDir + "/golden_v1.tcb");
    std::string error;
    ASSERT_EQ(splitTraceStream(*source, prefix, 3, &error), 3998u)
        << error;
    const std::string cli = "/tmp/tc_compat_golden_cli";
    ASSERT_EQ(runCli("./trace_tool split " + kDir +
                     "/golden_v1.tcb " + cli + " --shards=3"),
              0);
    for (std::uint32_t i = 0; i < 3; i++) {
        const std::string golden =
            fileBytes(kDir + "/golden_v1." + std::to_string(i) +
                      ".tcs");
        EXPECT_EQ(fileBytes(shardPath(prefix, i)), golden)
            << "shard " << i;
        EXPECT_EQ(fileBytes(shardPath(cli, i)), golden)
            << "CLI shard " << i;
        std::remove(shardPath(prefix, i).c_str());
        std::remove(shardPath(cli, i).c_str());
    }
}

TEST(FormatCompat, V1RoundTripsThroughTheV2Writer)
{
    const Trace golden = loadGoldenBinary();
    const std::string copy = "/tmp/tc_compat_roundtrip.tcb";
    ASSERT_TRUE(saveTrace(golden, copy));
    ParseResult r = loadTrace(copy);
    ASSERT_TRUE(r.ok) << r.message;
    ASSERT_EQ(r.trace.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); i++)
        ASSERT_EQ(r.trace[i], golden[i]) << "event " << i;
    std::remove(copy.c_str());
}

TEST(FormatCompat, AnalysisResultsMatchThePreBumpRun)
{
    const Trace golden = loadGoldenBinary();
    for (const GoldenCounts &g : kGolden) {
        for (const char *clock : {"tc", "vc"}) {
            SCOPED_TRACE(std::string(g.po) + "/" + clock);
            AnalysisPipeline pipeline;
            EngineConfig cfg;
            cfg.maxReports = 10;
            pipeline.add(makeAnalysisConsumer(g.po, clock, cfg));
            TraceSource source(golden);
            const auto reports = pipeline.run(source);
            ASSERT_EQ(reports.size(), 1u);
            const RaceSummary &races = reports[0].result.races;
            EXPECT_EQ(races.total(), g.total);
            EXPECT_EQ(races.writeWrite(), g.ww);
            EXPECT_EQ(races.writeRead(), g.wr);
            EXPECT_EQ(races.readWrite(), g.rw);
            EXPECT_EQ(races.racyVarCount(), g.racyVars);
        }
    }

    // The first reports are position-exact too (from the committed
    // report text: "w-r race on x52: 1@t4 vs 4@t0", ...).
    AnalysisPipeline hb;
    EngineConfig cfg;
    cfg.maxReports = 10;
    hb.add(makeAnalysisConsumer("hb", "tc", cfg));
    TraceSource source(golden);
    const auto reports = hb.run(source);
    const auto &first = reports[0].result.races.reports();
    ASSERT_GE(first.size(), 3u);
    EXPECT_EQ(first[0].var, 52);
    EXPECT_EQ(first[0].kind, RaceKind::WriteRead);
    EXPECT_EQ(first[0].prior, Epoch(4, 1));
    EXPECT_EQ(first[0].current, Epoch(0, 4));
    EXPECT_EQ(first[1].var, 3);
    EXPECT_EQ(first[1].prior, Epoch(1, 4));
    EXPECT_EQ(first[1].current, Epoch(4, 8));
    EXPECT_EQ(first[2].var, 7);
    EXPECT_EQ(first[2].prior, Epoch(5, 2));
    EXPECT_EQ(first[2].current, Epoch(3, 4));
}

/** The CLI's consumer matrix in CLI order, as the committed
 * snapshots hold it: po-major over (hb, shb, maz) × (tc, vc). */
void
addMatrix(AnalysisPipeline &pipeline)
{
    for (const char *po : {"hb", "shb", "maz"})
        for (const char *clock : {"tc", "vc"})
            pipeline.add(makeAnalysisConsumer(po, clock));
}

/** Whose counters a snapshot's SHB and MAZ states carry. */
enum class Accounting
{
    /** Today's: every counter resumes to the straight run's. */
    Current,
    /** Written while per-variable clocks copied: only the work done
     * after the snapshot compares. */
    PerVariableCopies,
};

/** Resume the matrix from @p snapshot, finish the golden trace and
 * check every consumer against a straight run: races, vtWork and
 * the resident and peak clock bytes. Under
 * Accounting::PerVariableCopies, SHB's and MAZ's vtWork is compared
 * over the resumed tail: the resumed total minus the snapshot's
 * figure against the straight run's total minus its figure at the
 * snapshot's event. */
void
expectResumeMatchesStraightRun(const std::string &snapshot,
                               std::vector<AnalysisReport> *out,
                               Accounting accounting)
{
    const Trace golden = loadGoldenBinary();
    AnalysisPipeline resumed;
    addMatrix(resumed);
    SnapshotMeta meta;
    std::string error;
    ASSERT_TRUE(loadSnapshot(snapshot, resumed, &meta, &error))
        << error;
    ASSERT_GT(meta.position, 0u);
    ASSERT_LT(meta.position, golden.size());
    const auto stored = resumed.reports();

    // The straight run, in two segments split at the snapshot's
    // event; the head declares the golden trace's id spaces.
    AnalysisPipeline straight;
    addMatrix(straight);
    Trace head(golden.numThreads(), golden.numLocks(),
               golden.numVars());
    head.append(&golden[0], static_cast<std::size_t>(meta.position));
    TraceSource head_source(head);
    const auto at_snapshot = straight.run(head_source);
    TraceSource rest(golden);
    ASSERT_TRUE(rest.seekToSequence(meta.position));
    const auto expected = straight.drain(rest);

    TraceSource tail(golden);
    ASSERT_TRUE(tail.seekToSequence(meta.position));
    *out = resumed.drain(tail);
    ASSERT_EQ(out->size(), expected.size());
    ASSERT_EQ(stored.size(), expected.size());
    for (std::size_t i = 0; i < out->size(); i++) {
        SCOPED_TRACE(expected[i].name);
        const AnalysisReport &got = (*out)[i];
        EXPECT_EQ(got.name, expected[i].name);
        const RaceSummary &a = got.result.races;
        const RaceSummary &e = expected[i].result.races;
        EXPECT_EQ(a.total(), e.total());
        EXPECT_EQ(a.writeWrite(), e.writeWrite());
        EXPECT_EQ(a.writeRead(), e.writeRead());
        EXPECT_EQ(a.readWrite(), e.readWrite());
        EXPECT_EQ(a.racyVars(), e.racyVars());
        const WorkCounters &w = got.result.work;
        const WorkCounters &x = expected[i].result.work;
        const bool hb = expected[i].name.rfind("hb/", 0) == 0;
        if (hb || accounting == Accounting::Current) {
            EXPECT_EQ(w.vtWork, x.vtWork);
        } else {
            EXPECT_EQ(w.vtWork - stored[i].result.work.vtWork,
                      x.vtWork - at_snapshot[i].result.work.vtWork);
        }
        EXPECT_EQ(w.clockBytes, x.clockBytes);
        EXPECT_EQ(w.clockBytesPeak, x.clockBytesPeak);
    }
}

TEST(FormatCompat, V1SnapshotResumesToTheFullRunResult)
{
    // A v1 blob carries no clock-byte gauge: the restored clocks'
    // own credit must stand in for it.
    std::vector<AnalysisReport> reports;
    expectResumeMatchesStraightRun(kDir + "/golden_v1.tcsnap",
                                   &reports,
                                   Accounting::PerVariableCopies);
    ASSERT_EQ(reports.size(), 6u);

    // And the totals are still the pre-bump ones.
    EXPECT_EQ(reports[0].result.races.total(), kGolden[0].total);
    EXPECT_EQ(reports[2].result.races.total(), kGolden[1].total);
    EXPECT_EQ(reports[4].result.races.total(), kGolden[2].total);
}

TEST(FormatCompat, V2SnapshotResumesToTheFullRunResult)
{
    // The fixture's tree-clock gauges count 24 bytes per slot, the
    // restored clocks 20: the resident figure must be today's, and
    // the peak restart from it.
    std::vector<AnalysisReport> reports;
    expectResumeMatchesStraightRun(kDir + "/golden_v2.tcsnap",
                                   &reports,
                                   Accounting::PerVariableCopies);
    EXPECT_EQ(reports.size(), 6u);
}

/** One .tcsnap section: its tag, and where its CRC32 and payload
 * sit in the file (layout in trace/snapshot.hh). */
struct SnapSection
{
    std::uint32_t tag;
    std::size_t crcAt, payloadAt, size;
};

template <typename T>
T
podAt(const std::string &bytes, std::size_t at)
{
    T v{};
    if (at + sizeof(T) <= bytes.size())
        std::memcpy(&v, bytes.data() + at, sizeof(T));
    return v;
}

std::vector<SnapSection>
sectionsOf(const std::string &bytes)
{
    // Magic (8), version (u32) and finalized flag (u8), then the
    // u32 section count and [u32 tag][u64 len][u32 crc][payload].
    std::size_t at = 8 + 4 + 1;
    const auto count = podAt<std::uint32_t>(bytes, at);
    at += 4;
    std::vector<SnapSection> out;
    for (std::uint32_t i = 0; i < count && at < bytes.size(); i++) {
        SnapSection s{};
        s.tag = podAt<std::uint32_t>(bytes, at);
        s.size = podAt<std::uint64_t>(bytes, at + 4);
        s.crcAt = at + 12;
        s.payloadAt = at + 16;
        out.push_back(s);
        at = s.payloadAt + s.size;
    }
    EXPECT_EQ(at, bytes.size());
    return out;
}

/** A section's consumer name ("" for META). */
std::string
sectionName(const std::string &bytes, const SnapSection &s)
{
    const auto name_len = podAt<std::uint64_t>(bytes, s.payloadAt);
    return s.tag == 0x534E4F43u // "CONS"
               ? bytes.substr(s.payloadAt + 8, name_len)
               : std::string();
}

TEST(FormatCompat, OwnCheckpointKeepsTheV2ClockColumns)
{
    // Today's checkpoint at the fixture's event, written the way the
    // fixture was. META and the HB sections pin the clock columns:
    // tree-clock records no longer hold a parent, yet those come out
    // byte for byte; the only bytes that differ are hb/tc's
    // clock-byte gauges (the last two u64s of the driver state; 20
    // against 24 bytes per slot) and, with them, its CRC32. The SHB
    // and MAZ sections hold other work counters and per-variable
    // tree shapes now that those clocks share, so they must resume
    // to the straight run instead.
    const std::string dir = "/tmp/tc_compat_v2_snaps";
    mkdir(dir.c_str(), 0755);
    for (const std::string &stale : listSnapshots(dir, "snapshot"))
        std::remove(stale.c_str());
    ASSERT_EQ(runCli("./race_detector --trace=" + kDir +
                     "/golden_v1.tcb --stream --po=hb,shb,maz "
                     "--clock=tc,vc --checkpoint-every=1500 "
                     "--snapshot-dir=" + dir),
              2);
    const std::string own_path =
        dir + "/snapshot.00000000000000001500.tcsnap";
    const std::string own = fileBytes(own_path);
    std::vector<AnalysisReport> reports;
    expectResumeMatchesStraightRun(own_path, &reports,
                                   Accounting::Current);
    EXPECT_EQ(reports.size(), 6u);
    for (const std::string &made : listSnapshots(dir, "snapshot"))
        std::remove(made.c_str());
    rmdir(dir.c_str());

    const std::string fixture = fileBytes(kDir + "/golden_v2.tcsnap");
    const auto theirs = sectionsOf(fixture);
    const auto mine = sectionsOf(own);
    ASSERT_EQ(theirs.size(), 7u); // META + six consumers
    ASSERT_EQ(mine.size(), theirs.size());
    int pinned = 0;
    for (std::size_t i = 0; i < theirs.size(); i++) {
        const std::string name = sectionName(fixture, theirs[i]);
        SCOPED_TRACE(name.empty() ? "META" : name);
        ASSERT_EQ(sectionName(own, mine[i]), name);
        if (!name.empty() && name.rfind("hb/", 0) != 0)
            continue;
        pinned++;
        ASSERT_EQ(mine[i].size, theirs[i].size);
        std::string section =
            own.substr(mine[i].crcAt, 4 + mine[i].size);
        const std::string expected =
            fixture.substr(theirs[i].crcAt, 4 + theirs[i].size);
        if (name == "hb/tc") {
            const std::size_t gauges = 4 + theirs[i].size - 16;
            for (std::size_t at : {gauges, gauges + 8}) {
                const auto fixed = podAt<std::uint64_t>(expected, at);
                const auto today = podAt<std::uint64_t>(section, at);
                EXPECT_GT(today, 0u);
                EXPECT_EQ(today * 24, fixed * 20);
            }
            // Patch in the fixture's gauges and CRC32; what remains
            // must be identical.
            section.replace(gauges, 16, expected, gauges, 16);
            section.replace(0, 4, expected, 0, 4);
        }
        EXPECT_TRUE(section == expected)
            << "checkpoint bytes differ beyond the tree-clock gauges";
    }
    EXPECT_EQ(pinned, 3); // META, hb/tc, hb/vc
}

// ---------------------------------------------------------------
// Stale sharded snapshots: the retired var-sharded consumers wrote
// their state behind a "TCSHARD1" header under the sequential
// consumer names. Such a section must never restore into a
// sequential driver: an explicit --resume-from is corrupt input
// (exit 3), and --resume skips it and starts clean.
// ---------------------------------------------------------------

const std::string kShardedSnap =
    kDir + "/golden_v1.shard_analysis_w2.tcsnap";

TEST(FormatCompat, ShardedSnapshotFixtureIsGenuine)
{
    // "TCSHARD1" as the little-endian u64 the sharded consumers
    // wrote first in each state section.
    EXPECT_NE(fileBytes(kShardedSnap).find("1DRAHSCT"),
              std::string::npos);
    SnapshotMeta meta;
    std::string error;
    ASSERT_TRUE(readSnapshotMeta(kShardedSnap, &meta, &error))
        << error;
    EXPECT_EQ(meta.position, 500u);
    EXPECT_EQ(meta.consumers,
              (std::vector<std::string>{"hb/tc", "shb/tc"}));
}

TEST(FormatCompat, ShardedSnapshotNeverRestores)
{
    AnalysisPipeline pipeline;
    pipeline.add(makeAnalysisConsumer("hb", "tc"))
        .add(makeAnalysisConsumer("shb", "tc"));
    SnapshotMeta meta;
    std::string error;
    EXPECT_FALSE(loadSnapshot(kShardedSnap, pipeline, &meta, &error));
    EXPECT_NE(error.find("'hb/tc' state failed to restore"),
              std::string::npos)
        << error;
}

TEST(FormatCompat, ShardedSnapshotFailsCleanlyThroughTheCli)
{
    const std::string detector = "./race_detector --trace=" + kDir +
                                 "/golden_v1.tcb --stream "
                                 "--po=hb,shb --clock=tc";
    EXPECT_EQ(runCli(detector + " --resume-from=" + kShardedSnap),
              3);

    const std::string dir = "/tmp/tc_compat_sharded_snaps";
    const std::string copy =
        dir + "/snapshot.00000000000000000500.tcsnap";
    mkdir(dir.c_str(), 0755);
    {
        std::ofstream out(copy, std::ios::binary | std::ios::trunc);
        out << fileBytes(kShardedSnap);
    }
    std::string straight, resumed;
    const int straight_code = runCli(detector, &straight);
    const int code =
        runCli(detector + " --resume --snapshot-dir=" + dir,
               &resumed);
    EXPECT_EQ(straight_code, 2) << straight; // the golden trace races
    EXPECT_EQ(code, straight_code) << resumed;
    EXPECT_NE(resumed.find("warning: skipping snapshot"),
              std::string::npos)
        << resumed;
    EXPECT_NE(resumed.find("no usable snapshot, starting clean"),
              std::string::npos)
        << resumed;
    const auto reports = [](const std::string &out) {
        const std::size_t at = out.find("--- ");
        return at == std::string::npos ? out : out.substr(at);
    };
    EXPECT_EQ(reports(resumed), reports(straight));
    std::remove(copy.c_str());
    rmdir(dir.c_str());
}

// ---------------------------------------------------------------
// Version negotiation: unknown versions are corrupt input, both
// through the library and through the CLIs (exit code 3).
// ---------------------------------------------------------------

void
writeBinaryWithMagic(const std::string &path, const char *magic5,
                     std::uint8_t op)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(magic5, 5);
    out.put('\0');
    const std::uint32_t header[3] = {2, 1, 1};
    out.write(reinterpret_cast<const char *>(header),
              sizeof(header));
    const std::uint64_t n = 1;
    out.write(reinterpret_cast<const char *>(&n), sizeof(n));
    const std::int32_t tid = 0;
    const std::uint32_t target = 1;
    out.write(reinterpret_cast<const char *>(&tid), sizeof(tid));
    out.write(reinterpret_cast<const char *>(&target),
              sizeof(target));
    out.put(static_cast<char>(op));
}

TEST(FormatCompat, UnknownBinaryVersionIsCorrupt)
{
    const std::string path = "/tmp/tc_compat_v3.tcb";
    writeBinaryWithMagic(path, "TCTB3", 0);
    const ParseResult r = loadTrace(path);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(runCli("./race_detector --trace=" + path), 3);
    EXPECT_EQ(runCli("./trace_tool stats " + path), 3);
    std::remove(path.c_str());
}

TEST(FormatCompat, LifecycleOpInV1ContainerIsCorrupt)
{
    // A v1 file must not smuggle v2 op codes: the v1 reader bounds
    // ops at kMaxOpV1 and treats anything beyond as corruption.
    const std::string path = "/tmp/tc_compat_v1_lifecycle.tcb";
    writeBinaryWithMagic(path, "TCTB1",
                         static_cast<std::uint8_t>(
                             OpType::ThreadCreate));
    const ParseResult r = loadTrace(path);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(runCli("./race_detector --trace=" + path), 3);

    // The identical bytes under a v2 magic are a valid trace.
    writeBinaryWithMagic(path, "TCTB2",
                         static_cast<std::uint8_t>(
                             OpType::ThreadCreate));
    const ParseResult v2 = loadTrace(path);
    EXPECT_TRUE(v2.ok) << v2.message;
    EXPECT_TRUE(v2.trace.hasLifecycle());
    std::remove(path.c_str());
}

TEST(FormatCompat, UnknownSnapshotVersionIsRejected)
{
    // Byte 8 starts the u32 format version (after the 8-byte
    // magic); bump it past kSnapshotVersion.
    std::ifstream in(kDir + "/golden_v1.tcsnap",
                     std::ios::binary);
    std::vector<char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = static_cast<char>(kSnapshotVersion + 1);

    const std::string path = "/tmp/tc_compat_future.tcsnap";
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    AnalysisPipeline pipeline;
    pipeline.add(makeAnalysisConsumer("hb", "tc"));
    SnapshotMeta meta;
    std::string error;
    EXPECT_FALSE(loadSnapshot(path, pipeline, &meta, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace tc
