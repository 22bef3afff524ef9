/**
 * @file
 * Differential suite for the zero-copy ingest path: everything a
 * consumer can observe through an EventSource — the event stream,
 * SourceInfo, rewind/seek behaviour, mid-stream error positions,
 * messages and kinds — must be identical whether the bytes come
 * from an mmap'd file (--io=mmap / the Auto default) or from the
 * buffered stream readers (--io=stream). The matrix covers v1 and
 * v2 binary traces, shard sets, truncation and corruption at
 * awkward byte positions, seekToSequence resume points, and fault
 * injection, where an armed registry must route mmap requests
 * through the stream path so injected faults fire identically.
 *
 * ctest runs with the build directory as the working directory, so
 * ./race_detector resolves to the freshly built CLI for the
 * exit-code parity legs.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/diagnostics.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/fault_injection.hh"
#include "trace/mapped_file.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"

#ifndef TC_FIXTURE_DIR
#error "TC_FIXTURE_DIR must point at tests/fixtures"
#endif

namespace tc {
namespace {

const std::string kFixtures = TC_FIXTURE_DIR;
const std::string kDir = "/tmp/tc_mmap_source";

int
runCli(const std::string &command)
{
    const int status =
        std::system((command + " > /dev/null 2>&1").c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** Everything a consumer can observe from one full drain. */
struct DrainResult
{
    std::vector<Event> events;
    SourceInfo info;
    bool failed = false;
    std::string error;
    std::size_t errorLine = 0;
    SourceErrorKind kind = SourceErrorKind::None;
};

DrainResult
drainAll(EventSource &source)
{
    DrainResult r;
    r.info = source.info();
    Event e;
    while (source.next(e))
        r.events.push_back(e);
    r.failed = source.failed();
    r.error = source.error();
    r.errorLine = source.errorLine();
    r.kind = source.errorKind();
    return r;
}

void
expectSameDrain(const DrainResult &mm, const DrainResult &st,
                const std::string &label)
{
    ASSERT_EQ(mm.events.size(), st.events.size()) << label;
    for (std::size_t i = 0; i < mm.events.size(); i++)
        ASSERT_EQ(mm.events[i], st.events[i])
            << label << " event " << i;
    EXPECT_EQ(mm.info.threads, st.info.threads) << label;
    EXPECT_EQ(mm.info.locks, st.info.locks) << label;
    EXPECT_EQ(mm.info.vars, st.info.vars) << label;
    EXPECT_EQ(mm.info.events, st.info.events) << label;
    EXPECT_EQ(mm.info.lifecycle, st.info.lifecycle) << label;
    EXPECT_EQ(mm.failed, st.failed) << label;
    EXPECT_EQ(mm.error, st.error) << label;
    EXPECT_EQ(mm.errorLine, st.errorLine) << label;
    EXPECT_EQ(mm.kind, st.kind) << label;
}

/** Open @p path both ways and require identical observations. */
void
expectIoParity(const std::string &path, std::size_t window,
               const std::string &label)
{
    auto mm = openTraceFile(path, window, IoMode::Mmap);
    auto st = openTraceFile(path, window, IoMode::Stream);
    expectSameDrain(drainAll(*mm), drainAll(*st), label);
}

Trace
makeV1Trace(std::uint64_t events = 20000)
{
    RandomTraceParams p;
    p.threads = 7;
    p.locks = 5;
    p.vars = 63;
    p.events = events;
    p.seed = 11;
    return generateRandomTrace(p);
}

Trace
makeV2Trace()
{
    PoolWorkloadParams p;
    p.poolSize = 5;
    p.tasks = 600;
    p.taskEvents = 9;
    p.seed = 23;
    return generatePoolWorkload(p);
}

std::string
path(const std::string &name)
{
    return kDir + "/" + name;
}

class MmapSource : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FailpointRegistry::instance().reset();
        ::system(("mkdir -p " + kDir).c_str());
    }
    void
    TearDown() override
    {
        FailpointRegistry::instance().reset();
    }
};

TEST_F(MmapSource, MappedFileBasics)
{
    ASSERT_TRUE(mmapSupported());
    EXPECT_EQ(MappedFile::map(path("does_not_exist")), nullptr);

    const std::string p = path("bytes.bin");
    { std::ofstream(p, std::ios::binary) << "treeclock"; }
    auto map = MappedFile::map(p);
    ASSERT_NE(map, nullptr);
    ASSERT_EQ(map->size(), 9u);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(
                              map->data()),
                          map->size()),
              "treeclock");

    // An empty regular file maps successfully as an empty byte
    // source; readers report their own truncated-header errors.
    const std::string empty = path("empty.bin");
    { std::ofstream unused(empty, std::ios::binary); }
    auto emptyMap = MappedFile::map(empty);
    ASSERT_NE(emptyMap, nullptr);
    EXPECT_EQ(emptyMap->size(), 0u);
}

TEST_F(MmapSource, BinaryDifferentialV1)
{
    const Trace t = makeV1Trace();
    ASSERT_FALSE(t.hasLifecycle());
    const std::string p = path("v1.tcb");
    ASSERT_TRUE(saveTrace(t, p));
    // Window sizes straddle the refill boundaries: single-record
    // windows, a window that never divides the event count, and
    // the default.
    for (const std::size_t window :
         {std::size_t{1}, std::size_t{7}, kDefaultSourceWindow}) {
        expectIoParity(p, window,
                       "v1.tcb window=" + std::to_string(window));
    }
    // Auto on a regular file takes the mapped path and must still
    // match the explicit stream request.
    auto mm = openTraceFile(p, kDefaultSourceWindow, IoMode::Auto);
    auto st =
        openTraceFile(p, kDefaultSourceWindow, IoMode::Stream);
    expectSameDrain(drainAll(*mm), drainAll(*st), "v1.tcb auto");
}

TEST_F(MmapSource, BinaryDifferentialV2Lifecycle)
{
    const Trace t = makeV2Trace();
    ASSERT_TRUE(t.hasLifecycle());
    const std::string p = path("v2.tcb");
    ASSERT_TRUE(saveTrace(t, p));
    auto mm = openTraceFile(p, kDefaultSourceWindow, IoMode::Mmap);
    EXPECT_TRUE(mm->info().lifecycle);
    auto st =
        openTraceFile(p, kDefaultSourceWindow, IoMode::Stream);
    expectSameDrain(drainAll(*mm), drainAll(*st), "v2.tcb");
}

TEST_F(MmapSource, GoldenV1FixtureParity)
{
    expectIoParity(kFixtures + "/golden_v1.tcb",
                   kDefaultSourceWindow, "golden_v1.tcb");
    expectIoParity(kFixtures + "/golden_v1.0.tcs",
                   kDefaultSourceWindow, "golden_v1 shard set");
}

TEST_F(MmapSource, RewindParity)
{
    const Trace t = makeV1Trace(5000);
    const std::string p = path("rewind.tcb");
    ASSERT_TRUE(saveTrace(t, p));
    auto mm = openTraceFile(p, 64, IoMode::Mmap);
    // Drain a prefix, rewind mid-window, then the full drain must
    // match the trace exactly.
    Event e;
    for (int i = 0; i < 777; i++)
        ASSERT_TRUE(mm->next(e));
    ASSERT_TRUE(mm->rewind());
    test::expectSameEvents(t, *mm, "mmap rewind");
    // And again: rewind after clean exhaustion.
    ASSERT_TRUE(mm->rewind());
    test::expectSameEvents(t, *mm, "mmap rewind at eof");
}

TEST_F(MmapSource, SeekToSequenceParity)
{
    const Trace t = makeV1Trace(5000);
    const std::string p = path("seek.tcb");
    ASSERT_TRUE(saveTrace(t, p));
    for (const std::uint64_t n :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2499},
          std::uint64_t{4999}, std::uint64_t{5000}}) {
        auto mm = openTraceFile(p, 64, IoMode::Mmap);
        auto st = openTraceFile(p, 64, IoMode::Stream);
        ASSERT_EQ(mm->seekToSequence(n), st->seekToSequence(n))
            << "seek " << n;
        expectSameDrain(drainAll(*mm), drainAll(*st),
                        "seek " + std::to_string(n));
    }
}

TEST_F(MmapSource, TruncationAndCorruptionParity)
{
    const Trace t = makeV1Trace(1000);
    const std::string p = path("whole.tcb");
    ASSERT_TRUE(saveTrace(t, p));
    std::vector<char> bytes;
    {
        std::ifstream in(p, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const std::size_t header = 26; // magic + 3×u32 + u64 count

    auto writeVariant = [&](const std::vector<char> &content) {
        const std::string vp = path("variant.tcb");
        std::ofstream out(vp, std::ios::binary |
                                  std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        return vp;
    };

    // Truncations at every structurally distinct position:
    // mid-magic, mid-header, on a record boundary, mid-record.
    for (const std::size_t cut :
         {std::size_t{3}, header - 2, header, header + 9 * 17,
          header + 9 * 17 + 4, bytes.size() - 1}) {
        std::vector<char> cutBytes(bytes.begin(),
                                   bytes.begin() +
                                       static_cast<long>(cut));
        const std::string vp = writeVariant(cutBytes);
        expectIoParity(vp, 64,
                       "truncated at " + std::to_string(cut));
    }

    // Bad magic and an invalid op code mid-stream.
    {
        std::vector<char> bad = bytes;
        bad[0] = 'X';
        expectIoParity(writeVariant(bad), 64, "bad magic");
    }
    {
        std::vector<char> bad = bytes;
        bad[header + 9 * 100 + 8] = 0x7f; // op byte of event 100
        expectIoParity(writeVariant(bad), 64, "invalid op");
    }
}

TEST_F(MmapSource, ShardSetDifferential)
{
    const Trace t = makeV2Trace();
    const std::string src = path("shardsrc.tcb");
    ASSERT_TRUE(saveTrace(t, src));
    const std::string prefix = path("set");
    auto source = openTraceFile(src);
    std::string error;
    ASSERT_NE(splitTraceStream(*source, prefix, 4, &error),
              kUnknownEventCount)
        << error;

    // The merge over both byte sources.
    auto mm = openShardSet(prefix, kDefaultSourceWindow,
                           IoMode::Mmap);
    auto st = openShardSet(prefix, kDefaultSourceWindow,
                           IoMode::Stream);
    const DrainResult stDrain = drainAll(*st);
    expectSameDrain(drainAll(*mm), stDrain, "shard merge");

    // The --resume leg: a mid-stream seek on the mapped merge must
    // restart exactly where the stream path's total order says it
    // should.
    const std::uint64_t resumeAt = stDrain.events.size() / 3;
    auto resumed = openShardSet(prefix, kDefaultSourceWindow,
                                IoMode::Mmap);
    ASSERT_TRUE(resumed->seekToSequence(resumeAt));
    Event e;
    std::size_t i = static_cast<std::size_t>(resumeAt);
    while (resumed->next(e)) {
        ASSERT_LT(i, stDrain.events.size());
        ASSERT_EQ(e, stDrain.events[i]) << "resumed event " << i;
        i++;
    }
    EXPECT_FALSE(resumed->failed()) << resumed->error();
    EXPECT_EQ(i, stDrain.events.size());
}

TEST_F(MmapSource, ShardCorruptionParity)
{
    const Trace t = makeV1Trace(3000);
    const std::string src = path("corruptsrc.tcb");
    ASSERT_TRUE(saveTrace(t, src));
    const std::string prefix = path("corrupt");
    auto source = openTraceFile(src);
    std::string error;
    ASSERT_NE(splitTraceStream(*source, prefix, 3, &error),
              kUnknownEventCount)
        << error;

    auto mutateShard = [&](std::uint32_t shard, auto mutate) {
        std::vector<char> bytes;
        {
            std::ifstream in(shardPath(prefix, shard),
                             std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
        mutate(bytes);
        std::ofstream out(shardPath(prefix, shard),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    auto parity = [&](const std::string &label) {
        auto mm = openShardSet(prefix, kDefaultSourceWindow,
                               IoMode::Mmap);
        auto st = openShardSet(prefix, kDefaultSourceWindow,
                               IoMode::Stream);
        expectSameDrain(drainAll(*mm), drainAll(*st), label);
    };

    // Truncate shard 1's tail mid-record.
    std::vector<char> saved;
    {
        std::ifstream in(shardPath(prefix, 1), std::ios::binary);
        saved.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    mutateShard(1, [](std::vector<char> &b) {
        b.resize(b.size() - 5);
    });
    parity("truncated shard tail");

    auto restore = [&] {
        std::ofstream out(shardPath(prefix, 1),
                          std::ios::binary | std::ios::trunc);
        out.write(saved.data(),
                  static_cast<std::streamsize>(saved.size()));
    };

    // Corrupt magic: the set must be rejected identically.
    restore();
    mutateShard(1, [](std::vector<char> &b) { b[0] = 'Z'; });
    parity("corrupt shard magic");

    // Never-finalized sentinel counts (crashed capture).
    restore();
    mutateShard(1, [](std::vector<char> &b) {
        for (std::size_t i = 26; i < 26 + 16; i++)
            b[i] = static_cast<char>(0xff);
    });
    parity("unfinalized shard");
    restore();
}

TEST_F(MmapSource, ArmedFaultInjectionRoutesToStream)
{
    // Satellite contract: any armed failpoint disables the mapped
    // path entirely, so TC_FAILPOINTS faults fire with identical
    // positions and messages whatever --io asked for.
    EXPECT_TRUE(useMappedIo(IoMode::Auto));
    EXPECT_TRUE(useMappedIo(IoMode::Mmap));
    EXPECT_FALSE(useMappedIo(IoMode::Stream));

    std::string error;
    ASSERT_TRUE(FailpointRegistry::instance().arm(
        "source.next=eio@50", 0, &error))
        << error;
    EXPECT_FALSE(useMappedIo(IoMode::Auto));
    EXPECT_FALSE(useMappedIo(IoMode::Mmap));

    const Trace t = makeV1Trace(1000);
    const std::string p = path("faults.tcb");
    ASSERT_TRUE(saveTrace(t, p));

    // Both modes stream under arms, so the decorated sources fail
    // at the same event with the same injected error.
    auto run = [&](IoMode io) {
        auto src = makeFaultInjectingSource(openTraceFile(p, 64, io));
        return drainAll(*src);
    };
    const DrainResult mm = run(IoMode::Mmap);
    FailpointRegistry::instance().reset();
    ASSERT_TRUE(FailpointRegistry::instance().arm(
        "source.next=eio@50", 0, &error))
        << error;
    const DrainResult st = run(IoMode::Stream);
    EXPECT_TRUE(mm.failed);
    EXPECT_EQ(mm.kind, SourceErrorKind::Io);
    expectSameDrain(mm, st, "armed eio@50");
    EXPECT_EQ(mm.events.size(), 49u);
}

TEST_F(MmapSource, CliFaultAndIoFlagParity)
{
    const Trace t = makeV1Trace(2000);
    const std::string p = path("cli.tcb");
    ASSERT_TRUE(saveTrace(t, p));

    // Clean runs agree across --io values.
    const int mm = runCli("./race_detector --trace=" + p +
                          " --io=mmap");
    const int st = runCli("./race_detector --trace=" + p +
                          " --io=stream");
    const int autoMode = runCli("./race_detector --trace=" + p);
    EXPECT_EQ(mm, st);
    EXPECT_EQ(mm, autoMode);

    // Injected I/O faults exit identically whatever --io says
    // (--stream routes the CLI through the source.next decorator).
    const std::string arm = "TC_FAILPOINTS='source.next=eio@100' ";
    const int mmFault =
        runCli(arm + "./race_detector --stream --trace=" + p +
               " --io=mmap");
    const int stFault =
        runCli(arm + "./race_detector --stream --trace=" + p +
               " --io=stream");
    EXPECT_EQ(mmFault, stFault);
    EXPECT_EQ(mmFault, kExitIo);

    // Injected crashes too (the deterministic _Exit(77)).
    const std::string crash =
        "TC_FAILPOINTS='source.next=crash@100' ";
    EXPECT_EQ(runCli(crash + "./race_detector --stream --trace=" +
                     p + " --io=mmap"),
              kFaultCrashExitCode);
    EXPECT_EQ(runCli(crash + "./race_detector --stream --trace=" +
                     p + " --io=stream"),
              kFaultCrashExitCode);

    // An unknown --io value is a usage error, not a silent
    // fallback.
    EXPECT_EQ(runCli("./trace_tool stats " + p + " --io=bogus"),
              kExitUsage);
    EXPECT_EQ(runCli("./race_detector --trace=" + p +
                     " --io=bogus"),
              kExitUsage);
}

} // namespace
} // namespace tc
