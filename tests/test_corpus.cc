/**
 * @file
 * Corpus tests: every entry must build (at a reduced scale), be
 * well-formed, and the corpus as a whole must span the diversity
 * ranges docs/ARCHITECTURE.md (Corpus) promises: threads, sync
 * density, fork/join and scenario topologies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/corpus.hh"
#include "trace/trace_stats.hh"

namespace tc {
namespace {

TEST(Corpus, HasEntriesWithUniqueNames)
{
    const auto corpus = defaultCorpus();
    EXPECT_GE(corpus.size(), 20u);
    std::set<std::string> names;
    for (const auto &spec : corpus)
        names.insert(spec.name);
    EXPECT_EQ(names.size(), corpus.size());
}

TEST(Corpus, AllEntriesBuildValidTraces)
{
    for (const auto &spec : defaultCorpus()) {
        const Trace t = buildCorpusTrace(spec, 0.02);
        const auto v = t.validate();
        EXPECT_TRUE(v.ok) << spec.name << ": " << v.message;
        EXPECT_GT(t.size(), 0u) << spec.name;
    }
}

TEST(Corpus, ScaleControlsEventCount)
{
    const auto corpus = defaultCorpus();
    const auto &spec = corpus[5];
    const Trace small = buildCorpusTrace(spec, 0.01);
    const Trace large = buildCorpusTrace(spec, 0.05);
    EXPECT_GT(large.size(), small.size() * 3);
}

TEST(Corpus, SpansDiversityRanges)
{
    Tid max_threads = 0;
    Tid min_threads = 1 << 30;
    double max_sync = 0, min_sync = 100;
    bool has_forkjoin = false, has_scenario = false;
    for (const auto &spec : defaultCorpus()) {
        const Trace t = buildCorpusTrace(spec, 0.02);
        const TraceStats s = computeStats(t);
        max_threads = std::max(max_threads, s.threads);
        min_threads = std::min(min_threads, s.threads);
        max_sync = std::max(max_sync, s.syncPercent());
        min_sync = std::min(min_sync, s.syncPercent());
        has_forkjoin |= s.forks > 0;
        has_scenario |= spec.isScenario;
    }
    // Paper Table 1 ranges: threads 3..222, sync 0..44.4%.
    EXPECT_LE(min_threads, 5);
    EXPECT_GE(max_threads, 100);
    EXPECT_LE(min_sync, 5.0);
    EXPECT_GE(max_sync, 35.0);
    EXPECT_TRUE(has_forkjoin);
    EXPECT_TRUE(has_scenario);
}

TEST(Corpus, DeterministicAcrossBuilds)
{
    // Keep the vector alive: binding a reference to an element of
    // the defaultCorpus() temporary is a use-after-free.
    const auto corpus = defaultCorpus();
    const CorpusSpec &spec = corpus[3];
    const Trace a = buildCorpusTrace(spec, 0.02);
    const Trace b = buildCorpusTrace(spec, 0.02);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        ASSERT_EQ(a[i], b[i]);
}

TEST(Corpus, BenchScaleEnvParsing)
{
    unsetenv("TC_BENCH_SCALE");
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1.0);
    setenv("TC_BENCH_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 0.25);
    setenv("TC_BENCH_SCALE", "garbage", 1);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1.0);
    setenv("TC_BENCH_SCALE", "-3", 1);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1.0);
    setenv("TC_BENCH_SCALE", "5000", 1);
    EXPECT_DOUBLE_EQ(benchScaleFromEnv(), 1000.0);
    unsetenv("TC_BENCH_SCALE");
}

} // namespace
} // namespace tc
