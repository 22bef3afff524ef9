/**
 * @file
 * EventSource tests: chunked file readers against loadTrace,
 * window-boundary behaviour, rewind, streaming conversion and
 * error paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

namespace tc {
namespace {

Trace
sampleTrace(std::uint64_t events = 2000)
{
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 3;
    params.vars = 40;
    params.events = events;
    params.forkJoin = true;
    params.seed = 424242;
    return generateRandomTrace(params);
}

void
expectSameEvents(const Trace &expected, EventSource &source)
{
    const SourceInfo si = source.info();
    EXPECT_EQ(si.threads, expected.numThreads());
    EXPECT_EQ(si.locks, expected.numLocks());
    EXPECT_EQ(si.vars, expected.numVars());
    test::expectSameEvents(expected, source);
}

class EventSourceFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_ = sampleTrace();
        ASSERT_TRUE(saveTrace(trace_, textPath_));
        ASSERT_TRUE(saveTrace(trace_, binPath_));
    }

    void
    TearDown() override
    {
        std::remove(textPath_.c_str());
        std::remove(binPath_.c_str());
    }

    Trace trace_;
    std::string textPath_ = "/tmp/tc_event_source_test.tct";
    std::string binPath_ = "/tmp/tc_event_source_test.tcb";
};

TEST_F(EventSourceFiles, TextReaderMatchesLoadTrace)
{
    const ParseResult loaded = loadTrace(textPath_);
    ASSERT_TRUE(loaded.ok);
    const auto source = openTraceFile(textPath_);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(loaded.trace, *source);
}

TEST_F(EventSourceFiles, BinaryReaderMatchesLoadTrace)
{
    const ParseResult loaded = loadTrace(binPath_);
    ASSERT_TRUE(loaded.ok);
    const auto source = openTraceFile(binPath_);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(loaded.trace, *source);
}

TEST_F(EventSourceFiles, WindowBoundariesCoverAllSizes)
{
    // Windows that divide the event count, don't divide it, and
    // exceed it must all deliver the identical stream.
    for (const std::size_t window : {1ul, 7ul, 64ul, 1000000ul}) {
        auto source = openTraceFile(binPath_, window);
        ASSERT_FALSE(source->failed()) << "window " << window;
        expectSameEvents(trace_, *source);
    }
}

TEST_F(EventSourceFiles, RewindRestartsTheStream)
{
    for (const auto *path : {&textPath_, &binPath_}) {
        auto source = openTraceFile(*path, 32);
        Event e;
        for (int i = 0; i < 100; i++)
            ASSERT_TRUE(source->next(e));
        // Mid-window (100 is not a multiple of 32), then again
        // after a clean end of stream.
        ASSERT_TRUE(source->rewind());
        expectSameEvents(trace_, *source);
        ASSERT_TRUE(source->rewind());
        expectSameEvents(trace_, *source);
    }
}

TEST_F(EventSourceFiles, SeekToSequenceResumesAtTheNamedEvent)
{
    const std::uint64_t n = trace_.size();
    for (const std::uint64_t at :
         {std::uint64_t{0}, std::uint64_t{1}, n / 2, n - 1, n}) {
        auto source = openTraceFile(binPath_, 64);
        ASSERT_TRUE(source->seekToSequence(at)) << "seek " << at;
        Event e;
        std::uint64_t i = at;
        while (source->next(e)) {
            ASSERT_LT(i, n) << "seek " << at;
            ASSERT_EQ(e, trace_[i]) << "seek " << at;
            i++;
        }
        EXPECT_FALSE(source->failed())
            << "seek " << at << ": " << source->error();
        EXPECT_EQ(i, n) << "seek " << at;
    }
}

TEST(EventSourceV2, LifecycleBinaryRoundTrips)
{
    PoolWorkloadParams params;
    params.poolSize = 5;
    params.tasks = 600;
    params.taskEvents = 9;
    params.seed = 23;
    const Trace t = generatePoolWorkload(params);
    ASSERT_TRUE(t.hasLifecycle());
    const std::string path = "/tmp/tc_event_source_v2.tcb";
    ASSERT_TRUE(saveTrace(t, path));
    auto source = openTraceFile(path);
    ASSERT_FALSE(source->failed()) << source->error();
    EXPECT_TRUE(source->info().lifecycle);
    expectSameEvents(t, *source);
    std::remove(path.c_str());
}

TEST_F(EventSourceFiles, StreamingConvertRoundTrips)
{
    // text → binary → text through saveTraceStream (no
    // materialization), then compare against the original.
    const std::string bin2 = "/tmp/tc_event_source_conv.tcb";
    const std::string text2 = "/tmp/tc_event_source_conv.tct";
    {
        auto source = openTraceFile(textPath_);
        ASSERT_TRUE(saveTraceStream(*source, bin2));
    }
    {
        auto source = openTraceFile(bin2);
        ASSERT_TRUE(saveTraceStream(*source, text2));
    }
    const ParseResult direct = loadTrace(textPath_);
    const ParseResult converted = loadTrace(text2);
    ASSERT_TRUE(direct.ok);
    ASSERT_TRUE(converted.ok) << converted.message;
    ASSERT_EQ(direct.trace.size(), converted.trace.size());
    for (std::size_t i = 0; i < direct.trace.size(); i++)
        EXPECT_EQ(direct.trace[i], converted.trace[i]);
    // The patched binary header must carry the real event count.
    const ParseResult bin_loaded = loadTrace(bin2);
    ASSERT_TRUE(bin_loaded.ok);
    EXPECT_EQ(bin_loaded.trace.size(), trace_.size());
    std::remove(bin2.c_str());
    std::remove(text2.c_str());
}

TEST_F(EventSourceFiles, StreamingStatsMatchBatchStats)
{
    const TraceStats batch = computeStats(trace_);
    auto source = openTraceFile(binPath_, 16);
    const TraceStats streamed = computeStats(*source);
    EXPECT_EQ(batch.events, streamed.events);
    EXPECT_EQ(batch.threads, streamed.threads);
    EXPECT_EQ(batch.variables, streamed.variables);
    EXPECT_EQ(batch.locks, streamed.locks);
    EXPECT_EQ(batch.reads, streamed.reads);
    EXPECT_EQ(batch.writes, streamed.writes);
    EXPECT_EQ(batch.acquires, streamed.acquires);
    EXPECT_EQ(batch.forks, streamed.forks);
}

TEST(EventSourceErrors, MissingFileFailsOnOpen)
{
    const auto source =
        openTraceFile("/tmp/definitely_missing_source.tct");
    ASSERT_TRUE(source->failed());
    Event e;
    EXPECT_FALSE(source->next(e));
}

TEST(EventSourceErrors, TruncatedBinaryFailsMidStream)
{
    const Trace t = sampleTrace(500);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(t, ss));
    std::string data = ss.str();
    data.resize(data.size() - 5); // cut into the last event
    std::stringstream cut(data);
    auto source = makeBinaryEventSource(cut, 64);
    ASSERT_FALSE(source->failed());
    Event e;
    std::size_t delivered = 0;
    while (source->next(e))
        delivered++;
    EXPECT_TRUE(source->failed());
    EXPECT_LT(delivered, t.size());
}

TEST(EventSourceErrors, DamagedBinaryFilesReportWhereTheyBroke)
{
    // Every structurally distinct cut of a .tcb and two corrupt
    // bytes: the exact message, the events delivered before it and
    // the error kind, read back through a 64-event window.
    const Trace t = sampleTrace(1000);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(t, ss));
    const std::string bytes = ss.str();
    const std::size_t header = 26; // magic + 3×u32 + u64 count
    const std::size_t record = 9;
    const std::size_t n = t.size();
    ASSERT_GT(n, 100u);

    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    std::string bad_op = bytes;
    bad_op[header + record * 100 + 8] = 0x7f; // op byte of event 100

    const struct
    {
        const char *label;
        std::string content;
        std::size_t delivered;
        std::string error;
    } cases[] = {
        {"mid-magic", bytes.substr(0, 3), 0,
         "bad magic (not a treeclock binary trace)"},
        {"mid-header", bytes.substr(0, header - 2), 0,
         "truncated header"},
        {"header only", bytes.substr(0, header), 0,
         "truncated event stream at event 0"},
        {"record boundary", bytes.substr(0, header + record * 17), 17,
         "truncated event stream at event 17"},
        // A torn window fails before delivering any of it.
        {"mid-record", bytes.substr(0, header + record * 17 + 4), 0,
         "truncated event stream at event 17"},
        // The last window is torn, so what came before it is all
        // that arrives.
        {"last byte cut", bytes.substr(0, bytes.size() - 1),
         (n - 1) / 64 * 64,
         "truncated event stream at event " + std::to_string(n - 1)},
        {"bad magic", bad_magic, 0,
         "bad magic (not a treeclock binary trace)"},
        {"invalid op at event 100", bad_op, 100, "invalid op code"},
    };
    const std::string path = "/tmp/tc_event_source_damaged.tcb";
    for (const auto &c : cases) {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << c.content;
        auto source = openTraceFile(path, 64);
        Event e;
        std::size_t delivered = 0;
        while (source->next(e))
            delivered++;
        EXPECT_EQ(delivered, c.delivered) << c.label;
        EXPECT_TRUE(source->failed()) << c.label;
        EXPECT_EQ(source->error(), c.error) << c.label;
        EXPECT_EQ(source->errorKind(), SourceErrorKind::Corrupt)
            << c.label;
        EXPECT_EQ(source->errorLine(), 0u) << c.label;
    }
    std::remove(path.c_str());
}

TEST(EventSourceErrors, RejectsOutOfRangeBinaryIds)
{
    // A crafted .tcb with a negative tid must fail the stream, not
    // hand the id to consumers (heap-corruption regression).
    Trace t(1, 0, 1);
    t.write(0, 0);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(t, ss));
    std::string data = ss.str();
    // First event's tid starts right after magic(6) + 3×u32 + u64.
    const std::size_t tid_off = 6 + 12 + 8;
    const std::int32_t bad_tid = -1;
    data.replace(tid_off, sizeof(bad_tid),
                 reinterpret_cast<const char *>(&bad_tid),
                 sizeof(bad_tid));
    std::stringstream corrupt(data);
    auto source = makeBinaryEventSource(corrupt, 64);
    Event e;
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
}

TEST(EventSourceErrors, RejectsOutOfRangeTextIds)
{
    std::istringstream is(
        "threads 1 locks 0 vars 1\n0 r 4294967296\n");
    auto source = makeTextEventSource(is);
    Event e;
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
    EXPECT_EQ(source->errorLine(), 2u);
}

/** A one-record .tcb: the header's three u32 widths, then the
 * record (tid, target, op). */
std::string
tinyBinaryTrace(const std::uint32_t (&widths)[3], std::int32_t tid,
                std::uint32_t target, OpType op)
{
    std::string out("TCTB1", 6);
    auto put = [&out](const auto &value) {
        out.append(reinterpret_cast<const char *>(&value),
                   sizeof(value));
    };
    put(widths);
    put(std::uint64_t{1});
    put(tid);
    put(target);
    put(static_cast<std::uint8_t>(op));
    return out;
}

TEST(EventSourceErrors, IdSpacesEndBelowTwoToTheThirtyOne)
{
    // Widths up to 2^31 - 1 and ids up to 2^31 - 2 read; one more
    // is corrupt input in both formats, never a wrapped width.
    const struct
    {
        const char *label;
        std::string text;
        std::string error; // "" when the trace reads
    } text_cases[] = {
        {"widest", "threads 2147483647 locks 2147483647 "
                   "vars 2147483647\n2147483646 w 2147483646\n",
         ""},
        {"threads 3e9", "threads 3000000000 locks 0 vars 1\n0 w 0\n",
         "header width out of range"},
        {"vars 2^32+1", "threads 1 locks 0 vars 4294967297\n0 w 0\n",
         "header width out of range"},
        {"tid 2^31-1", "threads 1 locks 0 vars 1\n2147483647 w 0\n",
         "event id out of range"},
        {"var 2^31-1", "threads 1 locks 0 vars 1\n0 w 2147483647\n",
         "event id out of range"},
    };
    for (const auto &c : text_cases) {
        std::istringstream is(c.text);
        auto source = makeTextEventSource(is);
        Event e;
        while (source->next(e)) {
        }
        EXPECT_EQ(source->error(), c.error) << c.label;
        if (!c.error.empty()) {
            EXPECT_EQ(source->errorKind(), SourceErrorKind::Corrupt)
                << c.label;
        }
    }

    const std::uint32_t max = kMaxIdWidth;
    const struct
    {
        const char *label;
        std::string bytes;
        std::string error;
    } binary_cases[] = {
        {"widest",
         tinyBinaryTrace({max, max, max}, 2147483646, 2147483646,
                         OpType::Write),
         ""},
        {"threads 2^32-1",
         tinyBinaryTrace({0xFFFFFFFF, 0, 1}, 0, 0, OpType::Write),
         "header width out of range"},
        {"vars 2^31",
         tinyBinaryTrace({1, 0, 0x80000000}, 0, 0, OpType::Write),
         "header width out of range"},
        {"tid 2^31-1",
         tinyBinaryTrace({1, 0, 1}, 2147483647, 0, OpType::Write),
         "event id out of range"},
        {"var 2^31-1",
         tinyBinaryTrace({1, 0, 1}, 0, 2147483647, OpType::Write),
         "event id out of range"},
    };
    for (const auto &c : binary_cases) {
        std::istringstream is(c.bytes);
        auto source = makeBinaryEventSource(is);
        Event e;
        while (source->next(e)) {
        }
        EXPECT_EQ(source->error(), c.error) << c.label;
        if (!c.error.empty()) {
            EXPECT_EQ(source->errorKind(), SourceErrorKind::Corrupt)
                << c.label;
        }
    }
}

TEST(EventSourceErrors, BadTextLineReportsLine)
{
    std::istringstream is(
        "threads 2 locks 1 vars 1\n0 r 0\n0 cas 0\n");
    auto source = makeTextEventSource(is);
    Event e;
    ASSERT_TRUE(source->next(e));
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
    EXPECT_EQ(source->errorLine(), 3u);
}

TEST(EventSourceBorrowedStreams, RewindReturnsToConstructionOffset)
{
    // A borrowed stream need not start at byte 0 (e.g. a preamble
    // before the trace); rewind must return to where the source
    // was constructed, not to the stream's beginning.
    Trace t(2, 0, 1);
    t.write(0, 0);
    t.read(1, 0);
    std::stringstream ss;
    ss << "PREAMBLE LINE\n";
    const auto preamble_end = ss.tellp();
    writeTraceText(t, ss);
    ss.seekg(preamble_end);
    auto source = makeTextEventSource(ss);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(t, *source);
    ASSERT_TRUE(source->rewind());
    expectSameEvents(t, *source);
}

TEST(EventSourceErrors, MissingHeaderFailsUpfront)
{
    std::istringstream is("0 r 0\n");
    const auto source = makeTextEventSource(is);
    EXPECT_TRUE(source->failed());
}

TEST(TraceSourceView, InfoAndIteration)
{
    Trace t(2, 0, 1);
    t.write(0, 0);
    t.read(1, 0);
    TraceSource source(t);
    const SourceInfo si = source.info();
    EXPECT_EQ(si.threads, 2);
    EXPECT_TRUE(si.eventCountKnown());
    EXPECT_EQ(si.events, 2u);
    expectSameEvents(t, source);
}

} // namespace
} // namespace tc
