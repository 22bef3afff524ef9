/**
 * @file
 * Shard capture tests: split → merge must reproduce the original
 * trace exactly — any shard count, any reader window — and the
 * readers must reject unfinalized or inconsistent shard sets.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

using test::expectSameEvents;

Trace
sampleTrace(std::uint64_t events, std::uint64_t seed = 99)
{
    RandomTraceParams params;
    params.threads = 7;
    params.locks = 3;
    params.vars = 32;
    params.events = events;
    params.forkJoin = true;
    params.seed = seed;
    return generateRandomTrace(params);
}

/** Split @p trace into @p shards files under @p prefix. */
void
split(const Trace &trace, const std::string &prefix,
      std::uint32_t shards)
{
    TraceSource source(trace);
    std::string error;
    const std::uint64_t written =
        splitTraceStream(source, prefix, shards, &error);
    ASSERT_EQ(written, trace.size()) << error;
}

void
removeShards(const std::string &prefix, std::uint32_t shards)
{
    for (std::uint32_t i = 0; i < shards; i++)
        std::remove(shardPath(prefix, i).c_str());
}

TEST(ShardPaths, RoundTripAndRejects)
{
    EXPECT_EQ(shardPath("/tmp/cap", 3), "/tmp/cap.3.tcs");
    std::string prefix;
    std::uint32_t index = 0;
    ASSERT_TRUE(parseShardPath("/tmp/cap.3.tcs", prefix, index));
    EXPECT_EQ(prefix, "/tmp/cap");
    EXPECT_EQ(index, 3u);
    EXPECT_FALSE(parseShardPath("/tmp/cap.tcs", prefix, index));
    EXPECT_FALSE(parseShardPath("/tmp/cap.3.tcb", prefix, index));
    EXPECT_FALSE(parseShardPath("3.tcs", prefix, index));
    // Only the canonical shardPath() spelling: "cap.00.tcs" would
    // decompose to index 0 and name a different file.
    EXPECT_FALSE(parseShardPath("/tmp/cap.00.tcs", prefix, index));
    EXPECT_FALSE(parseShardPath("/tmp/cap.01.tcs", prefix, index));
    EXPECT_FALSE(parseShardPath("/tmp/cap.9999999999.tcs", prefix,
                                index));
}

TEST(ShardRoundTrip, RandomizedShardCountsAndWindows)
{
    // The tentpole contract: split → merge == original, for shard
    // counts around/above/below the thread count and windows that
    // do and don't divide the per-shard event counts.
    Rng rng(20260730);
    const Trace trace = sampleTrace(3000);
    const std::string prefix = "/tmp/tc_shard_rt";
    const int rounds = 12 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        const auto shards =
            static_cast<std::uint32_t>(rng.range(1, 16));
        const auto window =
            static_cast<std::size_t>(rng.range(1, 200));
        split(trace, prefix, shards);
        auto merged = openShardSet(prefix, window);
        ASSERT_FALSE(merged->failed()) << merged->error();
        const SourceInfo si = merged->info();
        EXPECT_EQ(si.threads, trace.numThreads());
        EXPECT_EQ(si.locks, trace.numLocks());
        EXPECT_EQ(si.vars, trace.numVars());
        ASSERT_TRUE(si.eventCountKnown());
        EXPECT_EQ(si.events, trace.size());
        expectSameEvents(
            trace, *merged,
            "shards=" + std::to_string(shards) +
                " window=" + std::to_string(window));
        removeShards(prefix, shards);
    }
}

TEST(ShardRoundTrip, ShardsWrittenInSeveralFlushesRoundTrip)
{
    // The other splits here stage each shard in one buffer; this
    // one writes every shard in at least four 256 KiB flushes.
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 3;
    params.vars = 32;
    params.events = 240000;
    params.seed = 5;
    const Trace trace = generateRandomTrace(params);
    const std::string prefix = "/tmp/tc_shard_flushes";
    split(trace, prefix, 3);
    std::uint64_t records[3] = {};
    for (const Event &e : trace.events())
        records[e.tid % 3]++;
    for (std::uint32_t i = 0; i < 3; i++) {
        // A 42-byte header whose two u64 counts start at byte 26,
        // then 17-byte records.
        std::ifstream in(shardPath(prefix, i),
                         std::ios::binary | std::ios::ate);
        ASSERT_TRUE(in) << "shard " << i;
        ASSERT_GE(records[i] * 17, 4u * (256u << 10)) << "shard " << i;
        EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()),
                  42 + 17 * records[i])
            << "shard " << i;
        std::uint64_t counts[2] = {};
        in.seekg(26);
        in.read(reinterpret_cast<char *>(counts), sizeof(counts));
        EXPECT_EQ(counts[0], records[i]) << "shard " << i;
        EXPECT_EQ(counts[1], trace.size()) << "shard " << i;
    }
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    expectSameEvents(trace, *merged, "several flushes");
    removeShards(prefix, 3);
}

TEST(ShardRoundTrip, MoreShardsThanThreadsLeavesEmptyShards)
{
    const Trace trace = sampleTrace(400);
    const std::string prefix = "/tmp/tc_shard_sparse";
    split(trace, prefix, 32); // > 7 threads: many shards stay empty
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    expectSameEvents(trace, *merged, "sparse");
    removeShards(prefix, 32);
}

TEST(ShardRoundTrip, SingleShardIsStillATotalOrder)
{
    const Trace trace = sampleTrace(500);
    const std::string prefix = "/tmp/tc_shard_one";
    split(trace, prefix, 1);
    auto merged = openShardSet(prefix);
    expectSameEvents(trace, *merged, "one shard");
    removeShards(prefix, 1);
}

TEST(ShardRoundTrip, EmptyTraceRoundTrips)
{
    const Trace trace(4, 2, 8);
    const std::string prefix = "/tmp/tc_shard_empty";
    split(trace, prefix, 3);
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    Event e;
    EXPECT_FALSE(merged->next(e));
    EXPECT_FALSE(merged->failed());
    removeShards(prefix, 3);
}

TEST(ShardRoundTrip, RewindRestartsTheMerge)
{
    const Trace trace = sampleTrace(1000);
    const std::string prefix = "/tmp/tc_shard_rewind";
    split(trace, prefix, 4);
    auto merged = openShardSet(prefix, 16);
    Event e;
    for (int i = 0; i < 250; i++)
        ASSERT_TRUE(merged->next(e));
    ASSERT_TRUE(merged->rewind());
    expectSameEvents(trace, *merged, "after rewind");
    removeShards(prefix, 4);
}

TEST(ShardRoundTrip, SeekResumesTheMergeMidStream)
{
    // The --resume entry point over a v2 (lifecycle) set: seeking
    // the merge to a third of the stream must continue exactly
    // where the total order says it should.
    PoolWorkloadParams params;
    params.poolSize = 5;
    params.tasks = 600;
    params.taskEvents = 9;
    params.seed = 23;
    const Trace trace = generatePoolWorkload(params);
    const std::string prefix = "/tmp/tc_shard_resume";
    split(trace, prefix, 4);
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    EXPECT_TRUE(merged->info().lifecycle);
    const std::uint64_t resume_at = trace.size() / 3;
    ASSERT_TRUE(merged->seekToSequence(resume_at));
    Event e;
    std::size_t i = static_cast<std::size_t>(resume_at);
    while (merged->next(e)) {
        ASSERT_LT(i, trace.size());
        ASSERT_EQ(e, trace[i]) << "resumed event " << i;
        i++;
    }
    EXPECT_FALSE(merged->failed()) << merged->error();
    EXPECT_EQ(i, trace.size());
    removeShards(prefix, 4);
}

TEST(ShardRoundTrip, OpenTraceFileAcceptsAnyMember)
{
    // Every trace-consuming tool reads shard sets through the
    // normal openTraceFile path, via any member's file name.
    const Trace trace = sampleTrace(600);
    const std::string prefix = "/tmp/tc_shard_open";
    split(trace, prefix, 3);
    for (std::uint32_t i = 0; i < 3; i++) {
        auto source = openTraceFile(shardPath(prefix, i));
        ASSERT_FALSE(source->failed()) << source->error();
        expectSameEvents(trace, *source,
                         "member " + std::to_string(i));
    }
    removeShards(prefix, 3);
}

TEST(ShardErrors, StaleMemberFromWiderSplitIsRejected)
{
    // Split 3-wide, then re-split 2-wide onto the same prefix:
    // shard 2 is now a stale leftover. Opening the set by that
    // member must fail instead of silently analyzing the 2-shard
    // set that excludes the named file.
    const Trace trace = sampleTrace(300);
    const std::string prefix = "/tmp/tc_shard_stale";
    split(trace, prefix, 3);
    split(trace, prefix, 2);
    auto by_stale = openTraceFile(shardPath(prefix, 2));
    EXPECT_TRUE(by_stale->failed());
    EXPECT_NE(by_stale->error().find("stale"), std::string::npos)
        << by_stale->error();
    auto by_live = openTraceFile(shardPath(prefix, 1));
    ASSERT_FALSE(by_live->failed()) << by_live->error();
    expectSameEvents(trace, *by_live, "live member");
    removeShards(prefix, 3);
}

TEST(ShardErrors, UnfinalizedCaptureIsRejected)
{
    // Enough events that both shards wrote records to their files.
    const Trace trace = sampleTrace(40000);
    const std::string prefix = "/tmp/tc_shard_crash";
    {
        TraceSource source(trace);
        ShardWriter writer(prefix, 2, source.info());
        Event e;
        while (source.next(e))
            ASSERT_TRUE(writer.append(e)) << writer.error();
        // No finalize(): simulates a capture that died mid-run.
    }
    auto merged = openShardSet(prefix);
    EXPECT_TRUE(merged->failed());
    EXPECT_NE(merged->error().find("finalized"),
              std::string::npos)
        << merged->error();
    // rewind() must not resurrect a rejected set: the consistency
    // checks only run at construction.
    EXPECT_FALSE(merged->rewind());
    EXPECT_TRUE(merged->failed());
    Event e;
    EXPECT_FALSE(merged->next(e));
    removeShards(prefix, 2);
}

TEST(ShardErrors, AppendAfterFinalizeFails)
{
    // finalize() patched the header counts; a later record would
    // make the file disagree with them.
    const std::string prefix = "/tmp/tc_shard_postfin";
    SourceInfo info;
    info.threads = 2;
    ShardWriter writer(prefix, 2, info);
    ASSERT_FALSE(writer.failed()) << writer.error();
    ASSERT_TRUE(writer.append(Event(0, OpType::Write, 3)));
    ASSERT_TRUE(writer.finalize()) << writer.error();
    EXPECT_FALSE(writer.append(Event(1, OpType::Read, 3)));
    EXPECT_TRUE(writer.failed());
    EXPECT_EQ(writer.error(), "append after finalize");
    removeShards(prefix, 2);
}

TEST(ShardErrors, SplitIntoUnwritablePrefixReportsError)
{
    const Trace trace = sampleTrace(50);
    TraceSource source(trace);
    std::string error;
    EXPECT_EQ(splitTraceStream(source, "/nonexistent-dir/tc_shard",
                               2, &error),
              kUnknownEventCount);
    EXPECT_NE(error.find("cannot write"), std::string::npos)
        << error;
}

TEST(ShardErrors, AbsurdShardCountIsRejectedUpFront)
{
    // A corrupt (or hostile) header claiming ~4 billion shards
    // must fail the header check before anything sizes loops or
    // path lists off the count — not OOM while probing members.
    const Trace trace = sampleTrace(50);
    const std::string prefix = "/tmp/tc_shard_absurd";
    split(trace, prefix, 1);
    {
        // count is the second u32 word after the 6-byte magic.
        std::fstream f(shardPath(prefix, 0),
                       std::ios::binary | std::ios::in |
                           std::ios::out);
        f.seekp(6 + 4);
        const std::uint32_t absurd = 0xFFFFFFFFu;
        f.write(reinterpret_cast<const char *>(&absurd),
                sizeof(absurd));
    }
    EXPECT_EQ(shardSetCount(prefix), 0u);
    auto merged = openShardSet(prefix);
    EXPECT_TRUE(merged->failed());
    removeShards(prefix, 1);
}

TEST(ShardErrors, MissingMemberIsRejected)
{
    const Trace trace = sampleTrace(100);
    const std::string prefix = "/tmp/tc_shard_missing";
    split(trace, prefix, 3);
    std::remove(shardPath(prefix, 1).c_str());
    auto merged = openShardSet(prefix);
    EXPECT_TRUE(merged->failed());
    removeShards(prefix, 3);
}

TEST(ShardErrors, ForeignMemberIsRejected)
{
    // A shard spliced in from a different capture (here: one with
    // another shard count) must fail the consistency check instead
    // of silently merging garbage.
    const Trace trace = sampleTrace(200);
    const std::string a = "/tmp/tc_shard_seta";
    const std::string b = "/tmp/tc_shard_setb";
    split(trace, a, 2);
    split(trace, b, 3);
    {
        std::ifstream in(shardPath(b, 1), std::ios::binary);
        std::ofstream out(shardPath(a, 1), std::ios::binary);
        out << in.rdbuf();
    }
    auto merged = openShardSet(a);
    EXPECT_TRUE(merged->failed());
    removeShards(a, 2);
    removeShards(b, 3);
}

TEST(ShardErrors, AllOnesSequenceNumberIsRejected)
{
    // The all-ones stamp is the merge's in-band "exhausted"
    // sentinel (kLoserTreeInfKey); no writer can produce it, and a
    // corrupt record carrying it must fail the stream rather than
    // silently ending the merge early with the record dropped.
    const Trace trace = sampleTrace(100);
    const std::string prefix = "/tmp/tc_shard_infseq";
    split(trace, prefix, 1);
    {
        // Overwrite the last record's seq field (records are 17
        // bytes: u64 seq + i32 tid + u32 target + u8 op).
        std::fstream f(shardPath(prefix, 0),
                       std::ios::binary | std::ios::in |
                           std::ios::out);
        f.seekp(-17, std::ios::end);
        const std::uint64_t inf = ~0ull;
        f.write(reinterpret_cast<const char *>(&inf),
                sizeof(inf));
    }
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    Event e;
    std::size_t delivered = 0;
    while (merged->next(e))
        delivered++;
    EXPECT_TRUE(merged->failed());
    EXPECT_NE(merged->error().find("corrupt"), std::string::npos)
        << merged->error();
    EXPECT_EQ(delivered, trace.size() - 1);
    removeShards(prefix, 1);
}

TEST(ShardErrors, IdSpacesEndBelowTwoToTheThirtyOne)
{
    // A header width above 2^31 - 1 or a record id above 2^31 - 2
    // is corrupt input: the set fails with one message instead of
    // handing a wrapped width or id to the analyses.
    const Trace trace = sampleTrace(50);
    const std::string prefix = "/tmp/tc_shard_idspace";
    const std::string member = shardPath(prefix, 0);
    // Header words: index, count, threads, locks, vars after the
    // 6-byte magic; the 42-byte header is followed by 17-byte
    // records (u64 seq, i32 tid, u32 target, u8 op).
    const struct
    {
        const char *label;
        std::size_t offset;
        std::uint32_t value;
        std::string error;
    } cases[] = {
        {"threads 2^32-1", 6 + 2 * 4, 0xFFFFFFFF,
         member + ": header width out of range"},
        {"vars 2^31", 6 + 4 * 4, 0x80000000,
         member + ": header width out of range"},
        {"tid 2^31-1", 42 + 8, 0x7FFFFFFF,
         member + ": corrupt record at event 0"},
        {"target 2^31-1", 42 + 12, 0x7FFFFFFF,
         member + ": corrupt record at event 0"},
    };
    for (const auto &c : cases) {
        split(trace, prefix, 1);
        {
            std::fstream f(member, std::ios::binary | std::ios::in |
                                       std::ios::out);
            f.seekp(static_cast<std::streamoff>(c.offset));
            f.write(reinterpret_cast<const char *>(&c.value),
                    sizeof(c.value));
        }
        auto merged = openShardSet(prefix);
        Event e;
        while (merged->next(e)) {
        }
        EXPECT_TRUE(merged->failed()) << c.label;
        EXPECT_EQ(merged->error(), c.error) << c.label;
        EXPECT_EQ(merged->errorKind(), SourceErrorKind::Corrupt)
            << c.label;
    }
    removeShards(prefix, 1);
}

TEST(ShardErrors, TruncatedShardFailsAfterConsumedPrefix)
{
    const Trace trace = sampleTrace(600);
    const std::string prefix = "/tmp/tc_shard_trunc";
    split(trace, prefix, 2);
    // Cut into the last record of shard 0's payload.
    const std::string victim = shardPath(prefix, 0);
    std::ifstream in(victim, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    data.resize(data.size() - 5);
    std::ofstream(victim, std::ios::binary) << data;

    auto merged = openShardSet(prefix, 32);
    ASSERT_FALSE(merged->failed()) << merged->error();
    Event e;
    std::size_t delivered = 0;
    while (merged->next(e))
        delivered++;
    EXPECT_TRUE(merged->failed());
    EXPECT_LT(delivered, trace.size());
    removeShards(prefix, 2);
}

TEST(ShardErrors, DamagedMemberReportsPathPositionAndKind)
{
    // One member of a 3-shard set damaged three ways: the message
    // names the member, and the merge stops where that member
    // broke.
    const Trace trace = sampleTrace(3000, 11);
    const std::string prefix = "/tmp/tc_shard_damaged";
    split(trace, prefix, 3);
    const std::string victim = shardPath(prefix, 1);
    std::string saved;
    {
        std::ifstream in(victim, std::ios::binary);
        saved.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    // Shard k holds the events of threads t with t mod 3 == k,
    // stamped with their trace positions.
    std::vector<std::size_t> member;
    for (std::size_t i = 0; i < trace.size(); i++) {
        if (trace[i].tid % 3 == 1)
            member.push_back(i);
    }
    ASSERT_GE(member.size(), 2u);

    const std::size_t records = member.size();
    std::string torn = saved.substr(0, saved.size() - 5);
    std::string bad_magic = saved;
    bad_magic[0] = 'Z';
    // The sentinel a crashed capture leaves in both u64 counts
    // (header bytes 26..41).
    std::string unfinalized = saved;
    for (std::size_t i = 26; i < 26 + 16; i++)
        unfinalized[i] = static_cast<char>(0xff);

    const struct
    {
        const char *label;
        std::string content;
        std::size_t delivered;
        std::string error;
    } cases[] = {
        // The torn last record fails the member after its whole
        // records; the merge surfaces it one event after the
        // member's last good record.
        {"truncated tail", torn, member[records - 2] + 1,
         victim + ": truncated shard at event " +
             std::to_string(records - 1)},
        {"corrupt magic", bad_magic, 0,
         victim + ": bad shard header"},
        {"unfinalized", unfinalized, 0,
         victim + ": shard was never finalized (crashed capture?)"},
    };
    for (const auto &c : cases) {
        std::ofstream(victim, std::ios::binary | std::ios::trunc)
            << c.content;
        auto merged = openShardSet(prefix);
        Event e;
        std::size_t delivered = 0;
        while (merged->next(e))
            delivered++;
        EXPECT_EQ(delivered, c.delivered) << c.label;
        EXPECT_TRUE(merged->failed()) << c.label;
        EXPECT_EQ(merged->error(), c.error) << c.label;
        EXPECT_EQ(merged->errorKind(), SourceErrorKind::Corrupt)
            << c.label;
    }
    removeShards(prefix, 3);
}

} // namespace
} // namespace tc
