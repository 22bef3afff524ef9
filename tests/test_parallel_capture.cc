/**
 * @file
 * Concurrent capture tests: ShardWriter appenders driven by one
 * thread each (one atomic global sequence counter) and the
 * generator-driven capture simulation. The contracts pinned here:
 *
 *  - determinism: a concurrent capture of a trace is byte-identical
 *    to the split of the same trace, for any shard count;
 *  - equivalence: captured sets merge and analyze exactly like the
 *    original trace (races and work counters included);
 *  - torn captures: a writer crashing at any point — before
 *    finalize, whole threads dying mid-append — leaves a set every
 *    reader rejects;
 *  - free-running appends (no replay gate) are racy by design but
 *    still produce a well-formed, monotone, merge-consistent set.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/hb_engine.hh"
#include "core/tree_clock.hh"
#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/shard.hh"

namespace tc {
namespace {

using test::expectSameEvents;

Trace
sampleTrace(std::uint64_t events, std::uint64_t seed)
{
    RandomTraceParams params;
    params.threads = 9;
    params.locks = 3;
    params.vars = 48;
    params.events = events;
    params.forkJoin = true;
    params.seed = seed;
    return generateRandomTrace(params);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
removeShards(const std::string &prefix, std::uint32_t shards)
{
    for (std::uint32_t i = 0; i < shards; i++)
        std::remove(shardPath(prefix, i).c_str());
}

/** Byte-compare two finalized shard sets member by member. */
void
expectSameShardSets(const std::string &a, const std::string &b,
                    std::uint32_t shards, const std::string &label)
{
    for (std::uint32_t i = 0; i < shards; i++) {
        EXPECT_EQ(fileBytes(shardPath(a, i)),
                  fileBytes(shardPath(b, i)))
            << label << " shard " << i;
    }
}

TEST(ParallelCapture, SimulationMatchesSingleWriterByteForByte)
{
    // The determinism contract of the capture simulation: the
    // replay gate reproduces the input order, so the concurrent
    // capture's files equal a single-threaded split's, bit for
    // bit — headers, stamps and routing included.
    const Trace trace = sampleTrace(4000, 11);
    for (const std::uint32_t shards : {1u, 2u, 5u, 8u}) {
        const std::string cap = "/tmp/tc_pcap_sim";
        const std::string ref = "/tmp/tc_pcap_ref";
        std::string error;
        ASSERT_EQ(captureTraceParallel(trace, cap, shards, &error),
                  trace.size())
            << error;
        TraceSource source(trace);
        ASSERT_EQ(splitTraceStream(source, ref, shards, &error),
                  trace.size())
            << error;
        expectSameShardSets(cap, ref, shards,
                            "shards=" + std::to_string(shards));
        removeShards(cap, shards);
        removeShards(ref, shards);
    }
}

TEST(ParallelCapture, RandomizedCaptureMergeAnalyzeEquivalence)
{
    // capture → merge → analyze must equal analyzing the original
    // trace, across randomized shard counts and workload seeds
    // (the nightly depth job multiplies the rounds).
    Rng rng(20260730);
    const int rounds = 6 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        const Trace trace =
            sampleTrace(1500 + rng.range(0, 1500),
                        1000 + static_cast<std::uint64_t>(round));
        const auto shards =
            static_cast<std::uint32_t>(rng.range(1, 12));
        const bool simulate = rng.range(0, 1) == 0;
        const std::string prefix = "/tmp/tc_pcap_rand";
        std::string error;
        std::uint64_t written;
        if (simulate) {
            written = captureTraceParallel(trace, prefix, shards,
                                           &error);
        } else {
            TraceSource source(trace);
            written = splitTraceStream(source, prefix, shards, &error);
        }
        ASSERT_EQ(written, trace.size()) << error;
        const std::string label =
            "round=" + std::to_string(round) +
            " shards=" + std::to_string(shards) +
            (simulate ? " sim" : " split");

        auto merged = openShardSet(prefix);
        ASSERT_FALSE(merged->failed()) << merged->error();
        expectSameEvents(trace, *merged, label);

        // Analysis equivalence: the merged capture must produce
        // the reference races and Theorem-1 work accounting.
        WorkCounters batch_work;
        EngineConfig cfg;
        cfg.counters = &batch_work;
        const EngineResult expected =
            test::runEngine<HbEngine, TreeClock>(trace, cfg);
        ASSERT_TRUE(merged->rewind());
        WorkCounters stream_work;
        EngineConfig scfg;
        scfg.counters = &stream_work;
        HbEngine<TreeClock> engine(scfg);
        const EngineResult actual = engine.run(*merged);
        ASSERT_FALSE(merged->failed()) << merged->error();
        EXPECT_EQ(expected.races.total(), actual.races.total())
            << label;
        EXPECT_EQ(expected.events, actual.events) << label;
        EXPECT_EQ(batch_work.joins, stream_work.joins) << label;
        EXPECT_EQ(batch_work.vtWork, stream_work.vtWork) << label;
        removeShards(prefix, shards);
    }
}

TEST(ParallelCapture, CrashBeforeFinalizeIsRejected)
{
    // Concurrent appends, then the writer dies without finalize():
    // every header still carries the sentinel, so the set must be
    // rejected however far the capture got.
    const Trace trace = sampleTrace(800, 13);
    Rng rng(0xC4A5u);
    const int rounds = 4 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        const auto shards =
            static_cast<std::uint32_t>(rng.range(1, 6));
        const auto crash_at = static_cast<std::size_t>(
            rng.range(0, static_cast<int>(trace.size())));
        const std::string prefix = "/tmp/tc_pcap_crash";
        {
            SourceInfo info;
            info.threads = trace.numThreads();
            info.locks = trace.numLocks();
            info.vars = trace.numVars();
            ShardWriter writer(prefix, shards, info);
            ASSERT_FALSE(writer.failed()) << writer.error();
            // Concurrent free-running appends up to the crash
            // point; no finalize.
            std::vector<std::thread> pool;
            for (std::uint32_t s = 0; s < shards; s++) {
                pool.emplace_back([&, s] {
                    auto &app = writer.appender(s);
                    for (std::size_t p = 0; p < crash_at; p++) {
                        if (static_cast<std::size_t>(
                                trace[p].tid) %
                                shards ==
                            s)
                            app.append(trace[p]);
                    }
                    app.flush();
                });
            }
            for (auto &t : pool)
                t.join();
        }
        auto merged = openShardSet(prefix);
        EXPECT_TRUE(merged->failed());
        EXPECT_NE(merged->error().find("finalized"),
                  std::string::npos)
            << merged->error();
        removeShards(prefix, shards);
    }
}

TEST(ParallelCapture, FreeRunningConcurrentCaptureIsConsistent)
{
    // Without the replay gate the interleaving is whatever the
    // scheduler produced — but the set must still be well formed:
    // dense unique stamps, per-shard monotonicity, and a merge
    // whose per-thread projections equal each thread's appended
    // order. (This is the TSan workhorse: K threads hammering one
    // atomic counter and their own buffers.)
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 0;
    params.vars = 64;
    params.events = 20000;
    params.syncRatio = 0.0; // accesses only: any interleave valid
    params.seed = 77;
    const Trace trace = generateRandomTrace(params);
    const std::uint32_t shards = 3;
    const std::string prefix = "/tmp/tc_pcap_free";
    {
        SourceInfo info;
        info.threads = trace.numThreads();
        info.locks = trace.numLocks();
        info.vars = trace.numVars();
        ShardWriter writer(prefix, shards, info);
        ASSERT_FALSE(writer.failed()) << writer.error();
        std::vector<std::thread> pool;
        std::atomic<bool> failed{false};
        for (std::uint32_t s = 0; s < shards; s++) {
            pool.emplace_back([&, s] {
                auto &app = writer.appender(s);
                for (std::size_t p = 0; p < trace.size(); p++) {
                    if (static_cast<std::size_t>(trace[p].tid) %
                            shards !=
                        s)
                        continue;
                    if (!app.append(trace[p])) {
                        failed.store(true);
                        return;
                    }
                }
            });
        }
        for (auto &t : pool)
            t.join();
        ASSERT_FALSE(failed.load());
        ASSERT_TRUE(writer.finalize()) << writer.error();
        EXPECT_EQ(writer.eventsWritten(), trace.size());
        EXPECT_EQ(writer.sequence(), trace.size());
    }
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    const SourceInfo si = merged->info();
    ASSERT_TRUE(si.eventCountKnown());
    EXPECT_EQ(si.events, trace.size());
    // Per-shard projections of the merged order must equal each
    // capture thread's append order (= that shard's events in
    // trace order, since each thread replayed in trace order).
    std::vector<std::vector<Event>> expected(shards);
    for (std::size_t p = 0; p < trace.size(); p++) {
        expected[static_cast<std::size_t>(trace[p].tid) % shards]
            .push_back(trace[p]);
    }
    std::vector<std::size_t> cursor(shards, 0);
    Event e;
    std::size_t total = 0;
    while (merged->next(e)) {
        const std::size_t s =
            static_cast<std::size_t>(e.tid) % shards;
        ASSERT_LT(cursor[s], expected[s].size());
        EXPECT_EQ(e, expected[s][cursor[s]]) << "shard " << s;
        cursor[s]++;
        total++;
    }
    EXPECT_FALSE(merged->failed()) << merged->error();
    EXPECT_EQ(total, trace.size());
    removeShards(prefix, shards);
}

TEST(ParallelCapture, AppendAfterFinalizeFails)
{
    const std::string prefix = "/tmp/tc_pcap_postfin";
    SourceInfo info;
    info.threads = 2;
    ShardWriter writer(prefix, 2, info);
    ASSERT_FALSE(writer.failed());
    ASSERT_TRUE(writer.appender(0).append(
        Event(0, OpType::Write, 3)));
    ASSERT_TRUE(writer.finalize());
    EXPECT_FALSE(writer.appender(1).append(
        Event(1, OpType::Read, 3)));
    EXPECT_TRUE(writer.appender(1).failed());
    removeShards(prefix, 2);
}

TEST(ParallelCapture, EmptyCaptureFinalizesToEmptySet)
{
    const Trace trace(5, 2, 8);
    const std::string prefix = "/tmp/tc_pcap_empty";
    std::string error;
    ASSERT_EQ(captureTraceParallel(trace, prefix, 3, &error), 0u)
        << error;
    auto merged = openShardSet(prefix);
    ASSERT_FALSE(merged->failed()) << merged->error();
    Event e;
    EXPECT_FALSE(merged->next(e));
    EXPECT_FALSE(merged->failed());
    removeShards(prefix, 3);
}

TEST(ParallelCapture, UnwritablePrefixReportsError)
{
    const Trace trace = sampleTrace(50, 14);
    std::string error;
    EXPECT_EQ(captureTraceParallel(
                  trace, "/nonexistent-dir/tc_pcap", 2, &error),
              kUnknownEventCount);
    EXPECT_FALSE(error.empty());
    TraceSource source(trace);
    error.clear();
    EXPECT_EQ(splitTraceStream(source, "/nonexistent-dir/tc_pcap",
                               2, &error),
              kUnknownEventCount);
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace tc
