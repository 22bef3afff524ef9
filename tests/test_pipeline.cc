/**
 * @file
 * AnalysisPipeline fan-out tests: draining one EventSource through
 * N (partial order × clock) consumers — sequentially or over the
 * parallel worker pool, one worker included — must give each
 * consumer exactly the result a dedicated run would: races, reports
 * and work counters, including through the full split + merge
 * stack. A source failing mid-stream leaves every mode with the
 * same prefix reports. The parallel pool's shutdown discipline is
 * pinned too: a consumer throwing mid-stream stops every worker and
 * the producer, propagates the first exception, and leaves the
 * pipeline reusable (ASan/TSan in CI verify no leaks and no races
 * on these paths).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/pipeline.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

using test::runEngine;
using test::SweepCase;

void
expectSameRaces(const RaceSummary &a, const RaceSummary &b,
                const std::string &label)
{
    EXPECT_EQ(a.total(), b.total()) << label;
    EXPECT_EQ(a.writeWrite(), b.writeWrite()) << label;
    EXPECT_EQ(a.writeRead(), b.writeRead()) << label;
    EXPECT_EQ(a.readWrite(), b.readWrite()) << label;
    EXPECT_EQ(a.racyVarCount(), b.racyVarCount()) << label;
    ASSERT_EQ(a.reports().size(), b.reports().size()) << label;
    for (std::size_t i = 0; i < a.reports().size(); i++) {
        EXPECT_EQ(a.reports()[i].var, b.reports()[i].var)
            << label << " report " << i;
        EXPECT_EQ(a.reports()[i].kind, b.reports()[i].kind)
            << label << " report " << i;
        EXPECT_EQ(a.reports()[i].prior, b.reports()[i].prior)
            << label << " report " << i;
        EXPECT_EQ(a.reports()[i].current, b.reports()[i].current)
            << label << " report " << i;
    }
}

/** The separate-run reference for one named analysis, with its own
 * work-counter sink (the pipeline consumers each own one too). */
EngineResult
referenceRun(const std::string &po, const std::string &clock,
             const Trace &trace)
{
    WorkCounters work;
    EngineConfig cfg;
    cfg.counters = &work;
    if (clock == "tc") {
        if (po == "hb")
            return runEngine<HbEngine, TreeClock>(trace, cfg);
        if (po == "shb")
            return runEngine<ShbEngine, TreeClock>(trace, cfg);
        return runEngine<MazEngine, TreeClock>(trace, cfg);
    }
    if (po == "hb")
        return runEngine<HbEngine, VectorClock>(trace, cfg);
    if (po == "shb")
        return runEngine<ShbEngine, VectorClock>(trace, cfg);
    return runEngine<MazEngine, VectorClock>(trace, cfg);
}

AnalysisPipeline
fullPipeline()
{
    AnalysisPipeline pipeline;
    for (const char *po : {"hb", "shb", "maz"}) {
        for (const char *clock : {"tc", "vc"})
            pipeline.add(makeAnalysisConsumer(po, clock));
    }
    return pipeline;
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

TEST_P(PipelineSweep, OnePassEqualsSixSeparateRuns)
{
    AnalysisPipeline pipeline = fullPipeline();
    ASSERT_EQ(pipeline.size(), 6u);
    TraceSource source(trace_);
    const auto reports = pipeline.run(source);
    ASSERT_EQ(reports.size(), 6u);
    for (const AnalysisReport &report : reports) {
        const auto slash = report.name.find('/');
        const EngineResult expected =
            referenceRun(report.name.substr(0, slash),
                         report.name.substr(slash + 1), trace_);
        EXPECT_EQ(expected.events, report.result.events)
            << report.name;
        expectSameRaces(expected.races, report.result.races,
                        report.name);
        // Per-consumer counters: the fan-out must not blur the
        // Theorem 1 work accounting between drivers.
        EXPECT_EQ(expected.work.joins, report.result.work.joins)
            << report.name;
        EXPECT_EQ(expected.work.copies, report.result.work.copies)
            << report.name;
        EXPECT_EQ(expected.work.vtWork, report.result.work.vtWork)
            << report.name;
    }
}

TEST_P(PipelineSweep, FullStackShardedOneWorkerFanOut)
{
    // The acceptance demo: split → K-way merge on the calling
    // thread → one worker running all six analyses behind it, one
    // pass, results identical to six dedicated batch runs.
    const std::string prefix =
        "/tmp/tc_pipeline_" + GetParam().label;
    {
        TraceSource source(trace_);
        std::string error;
        ASSERT_EQ(splitTraceStream(source, prefix, 4, &error),
                  trace_.size())
            << error;
    }
    auto source = openShardSet(prefix, 64);
    ASSERT_FALSE(source->failed()) << source->error();

    AnalysisPipeline pipeline = fullPipeline();
    ParallelOptions opt;
    opt.workers = 1;
    opt.window = 64;
    const auto reports = pipeline.run(*source, opt);
    ASSERT_FALSE(source->failed()) << source->error();
    ASSERT_EQ(reports.size(), 6u);
    for (const AnalysisReport &report : reports) {
        const auto slash = report.name.find('/');
        const EngineResult expected =
            referenceRun(report.name.substr(0, slash),
                         report.name.substr(slash + 1), trace_);
        EXPECT_EQ(expected.events, report.result.events)
            << report.name;
        expectSameRaces(expected.races, report.result.races,
                        report.name);
    }
    for (std::uint32_t i = 0; i < 4; i++)
        std::remove(shardPath(prefix, i).c_str());
}

TEST_P(PipelineSweep, ShardedTwoWorkerFanOut)
{
    // The production stack end to end: split → shard merge →
    // parallel 6-analysis fan-out on two workers. Results must
    // equal six dedicated batch runs.
    const std::string prefix =
        "/tmp/tc_pipeline_stack_" + GetParam().label;
    {
        TraceSource source(trace_);
        std::string error;
        ASSERT_EQ(splitTraceStream(source, prefix, 4, &error),
                  trace_.size())
            << error;
    }
    auto source = openShardSet(prefix, 64);
    ASSERT_FALSE(source->failed()) << source->error();
    AnalysisPipeline pipeline = fullPipeline();
    ParallelOptions opt;
    opt.workers = 2;
    opt.window = 64;
    const auto reports = pipeline.run(*source, opt);
    ASSERT_FALSE(source->failed()) << source->error();
    ASSERT_EQ(reports.size(), 6u);
    for (const AnalysisReport &report : reports) {
        const auto slash = report.name.find('/');
        const EngineResult expected =
            referenceRun(report.name.substr(0, slash),
                         report.name.substr(slash + 1), trace_);
        EXPECT_EQ(expected.events, report.result.events)
            << report.name;
        expectSameRaces(expected.races, report.result.races,
                        report.name);
        EXPECT_EQ(expected.work.joins, report.result.work.joins)
            << report.name;
        EXPECT_EQ(expected.work.vtWork, report.result.work.vtWork)
            << report.name;
    }
    for (std::uint32_t i = 0; i < 4; i++)
        std::remove(shardPath(prefix, i).c_str());
}

TEST_P(PipelineSweep, ParallelEqualsSequentialEqualsDedicated)
{
    // The tentpole contract: the worker pool over shared zero-copy
    // windows returns, per consumer, results identical to the
    // sequential fan-out AND to a dedicated run — races, reports
    // and work counters — for every (po × clock) choice, over the
    // full split + merge stack, across worker counts that do (6)
    // and don't (2, 4) divide the consumer count evenly.
    const std::string prefix =
        "/tmp/tc_pipeline_par_" + GetParam().label;
    {
        TraceSource source(trace_);
        std::string error;
        ASSERT_EQ(splitTraceStream(source, prefix, 3, &error),
                  trace_.size())
            << error;
    }
    for (const std::size_t workers : {2u, 4u, 6u}) {
        auto source = openShardSet(prefix, 64);
        ASSERT_FALSE(source->failed()) << source->error();
        AnalysisPipeline pipeline = fullPipeline();
        ParallelOptions opt;
        opt.workers = workers;
        opt.window = 64;
        opt.depth = 3;
        const auto reports = pipeline.run(*source, opt);
        ASSERT_FALSE(source->failed()) << source->error();
        ASSERT_EQ(reports.size(), 6u);
        for (const AnalysisReport &report : reports) {
            const std::string label =
                report.name + " workers=" +
                std::to_string(workers);
            const auto slash = report.name.find('/');
            const EngineResult expected =
                referenceRun(report.name.substr(0, slash),
                             report.name.substr(slash + 1),
                             trace_);
            EXPECT_EQ(expected.events, report.result.events)
                << label;
            expectSameRaces(expected.races, report.result.races,
                            label);
            // Per-consumer counters: parallelism must not blur the
            // Theorem 1 work accounting between drivers.
            EXPECT_EQ(expected.work.joins,
                      report.result.work.joins)
                << label;
            EXPECT_EQ(expected.work.copies,
                      report.result.work.copies)
                << label;
            EXPECT_EQ(expected.work.dsWork,
                      report.result.work.dsWork)
                << label;
            EXPECT_EQ(expected.work.vtWork,
                      report.result.work.vtWork)
                << label;
        }
    }
    for (std::uint32_t i = 0; i < 3; i++)
        std::remove(shardPath(prefix, i).c_str());
}

TEST(PipelineParallel, WindowDepthWorkerEquivalenceSweep)
{
    // Randomized sweep over the (window, ring depth, workers)
    // space, one worker included, with published windows
    // around/below/above the chunked reader's own window. The
    // nightly CI job multiplies the round count by TC_TEST_DEPTH.
    RandomTraceParams params;
    params.threads = 8;
    params.locks = 4;
    params.vars = 32;
    params.events = 4000;
    params.syncRatio = 0.25;
    params.seed = 20260730;
    const Trace trace = generateRandomTrace(params);
    const std::string path = "/tmp/tc_pipeline_sweep.tcb";
    ASSERT_TRUE(saveTrace(trace, path));

    AnalysisPipeline sequential = fullPipeline();
    TraceSource ref(trace);
    const auto expected = sequential.run(ref);

    Rng rng(0x717dULL);
    const int rounds = 6 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        ParallelOptions opt;
        opt.workers = static_cast<std::size_t>(rng.range(1, 6));
        opt.window = static_cast<std::size_t>(rng.range(1, 700));
        opt.depth = static_cast<std::size_t>(rng.range(1, 6));
        const std::size_t source_window =
            static_cast<std::size_t>(rng.range(16, 512));
        const std::string label =
            "workers=" + std::to_string(opt.workers) +
            " window=" + std::to_string(opt.window) +
            " depth=" + std::to_string(opt.depth) +
            " source_window=" + std::to_string(source_window);

        AnalysisPipeline parallel = fullPipeline();
        auto source = openTraceFile(path, source_window);
        ASSERT_FALSE(source->failed()) << source->error();
        const auto reports = parallel.run(*source, opt);
        ASSERT_FALSE(source->failed()) << source->error();
        ASSERT_EQ(reports.size(), expected.size()) << label;
        for (std::size_t i = 0; i < reports.size(); i++) {
            EXPECT_EQ(expected[i].result.events,
                      reports[i].result.events)
                << label << " " << reports[i].name;
            expectSameRaces(expected[i].result.races,
                            reports[i].result.races,
                            label + " " + reports[i].name);
            // Every counter: a hand-off that skipped or repeated a
            // window would move at least one of them.
            const WorkCounters &want = expected[i].result.work;
            const WorkCounters &got = reports[i].result.work;
            const std::string name = label + " " + reports[i].name;
            EXPECT_EQ(want.dsWork, got.dsWork) << name;
            EXPECT_EQ(want.vtWork, got.vtWork) << name;
            EXPECT_EQ(want.clockBytes, got.clockBytes) << name;
            EXPECT_EQ(want.clockBytesPeak, got.clockBytesPeak)
                << name;
        }
    }
    std::remove(path.c_str());
}

/** @p path with its last @p bytes cut off: the final record is
 * torn, so a reader fails after delivering the prefix. */
void
truncateFile(const std::string &path, std::size_t bytes)
{
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    data.resize(data.size() - bytes);
    std::ofstream(path, std::ios::binary) << data;
}

TEST(PipelineParallel, MidStreamErrorKeepsThePrefixReports)
{
    // A source that fails mid-stream stops the drain: at one and
    // at three workers the reports cover exactly the prefix the
    // sequential drain analyzed, and the source stays failed with
    // its own message — for a torn .tcb and a torn shard set.
    RandomTraceParams params;
    params.threads = 8;
    params.locks = 4;
    params.vars = 64;
    params.events = 20000;
    params.forkJoin = true;
    params.seed = 777;
    const Trace trace = generateRandomTrace(params);
    const std::string path = "/tmp/tc_pipeline_trunc.tcb";
    const std::string prefix = "/tmp/tc_pipeline_trunc";
    ASSERT_TRUE(saveTrace(trace, path));
    {
        TraceSource source(trace);
        std::string error;
        ASSERT_EQ(splitTraceStream(source, prefix, 3, &error),
                  trace.size())
            << error;
    }
    truncateFile(path, 5);
    truncateFile(shardPath(prefix, 1), 5);

    for (const std::string &input : {path, shardPath(prefix, 0)}) {
        auto reference = openTraceFile(input);
        ASSERT_FALSE(reference->failed()) << reference->error();
        AnalysisPipeline sequential = fullPipeline();
        const auto expected = sequential.run(*reference);
        ASSERT_TRUE(reference->failed()) << input;
        ASSERT_GT(expected[0].result.events, 0u) << input;
        ASSERT_LT(expected[0].result.events, trace.size()) << input;

        for (const std::size_t workers : {1u, 3u}) {
            const std::string label =
                input + " workers=" + std::to_string(workers);
            auto source = openTraceFile(input);
            ASSERT_FALSE(source->failed()) << source->error();
            AnalysisPipeline parallel = fullPipeline();
            ParallelOptions opt;
            opt.workers = workers;
            const auto reports = parallel.run(*source, opt);
            EXPECT_TRUE(source->failed()) << label;
            EXPECT_EQ(source->error(), reference->error()) << label;
            ASSERT_EQ(reports.size(), expected.size()) << label;
            for (std::size_t i = 0; i < reports.size(); i++) {
                EXPECT_EQ(expected[i].result.events,
                          reports[i].result.events)
                    << label << " " << reports[i].name;
                expectSameRaces(expected[i].result.races,
                                reports[i].result.races,
                                label + " " + reports[i].name);
                EXPECT_EQ(expected[i].result.work.dsWork,
                          reports[i].result.work.dsWork)
                    << label << " " << reports[i].name;
            }
        }
    }
    std::remove(path.c_str());
    for (std::uint32_t i = 0; i < 3; i++)
        std::remove(shardPath(prefix, i).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

TEST(Pipeline, IsReusableAcrossRuns)
{
    Trace racy;
    racy.write(0, 0);
    racy.write(1, 0);
    Trace clean;
    clean.write(0, 0);

    AnalysisPipeline pipeline;
    pipeline.add(makeAnalysisConsumer("hb", "tc"));
    TraceSource first(racy);
    TraceSource second(clean);
    TraceSource third(racy);
    const auto r1 = pipeline.run(first);
    EXPECT_EQ(r1[0].result.races.total(), 1u);
    EXPECT_EQ(pipeline.run(second)[0].result.races.total(), 0u);
    const auto r3 = pipeline.run(third);
    EXPECT_EQ(r3[0].result.races.total(), 1u);
    // Owned work counters cover one run each, not the consumer's
    // lifetime: identical input, identical work.
    EXPECT_EQ(r1[0].result.work.dsWork, r3[0].result.work.dsWork);
    EXPECT_EQ(r1[0].result.work.joins, r3[0].result.work.joins);
    EXPECT_EQ(r1[0].result.work.increments,
              r3[0].result.work.increments);
}

TEST(Pipeline, HonorsPerConsumerConfig)
{
    Trace racy;
    for (Tid t = 0; t < 6; t++)
        racy.write(t, 0); // 5 pairwise-unordered write races
    EngineConfig capped;
    capped.maxReports = 2;
    AnalysisPipeline pipeline;
    pipeline.add(makeAnalysisConsumer("hb", "tc", capped))
        .add(makeAnalysisConsumer("hb", "vc"));
    TraceSource source(racy);
    const auto reports = pipeline.run(source);
    EXPECT_EQ(reports[0].result.races.reports().size(), 2u);
    EXPECT_EQ(reports[0].result.races.total(), 5u);
    EXPECT_EQ(reports[1].result.races.reports().size(), 5u);
}

/** A consumer that throws after a fixed number of events —
 * deterministic fault injection for the pool-shutdown tests. */
class FaultingConsumer final : public AnalysisConsumer
{
  public:
    explicit FaultingConsumer(std::uint64_t fuse) : fuse_(fuse) {}

    const std::string &name() const override { return name_; }
    void begin(const SourceInfo &) override { consumed_ = 0; }

    void
    consume(const Event &) override
    {
        if (++consumed_ > fuse_)
            throw std::runtime_error("injected consumer fault");
    }

    EngineResult
    result() const override
    {
        EngineResult r;
        r.events = consumed_;
        return r;
    }

    // Never checkpointed: these tests drain without snapshots.
    void saveState(ByteSink &) const override {}
    bool restoreState(ByteSource &) override { return false; }

  private:
    std::string name_ = "faulting";
    std::uint64_t fuse_;
    std::uint64_t consumed_ = 0;
};

class PipelineFault : public ::testing::Test
{
  protected:
    PipelineFault()
    {
        RandomTraceParams params;
        params.threads = 6;
        params.locks = 3;
        params.vars = 16;
        params.events = 6000;
        params.syncRatio = 0.2;
        params.seed = 424242;
        trace_ = generateRandomTrace(params);
    }

    /** Healthy consumers around the faulting one, so the fault
     * must interrupt workers that would otherwise keep going. */
    AnalysisPipeline
    faultingPipeline(std::uint64_t fuse)
    {
        AnalysisPipeline pipeline;
        pipeline.add(makeAnalysisConsumer("hb", "tc"))
            .add(makeAnalysisConsumer("shb", "vc"));
        pipeline.add(std::make_unique<FaultingConsumer>(fuse));
        pipeline.add(makeAnalysisConsumer("maz", "tc"));
        return pipeline;
    }

    Trace trace_;
};

TEST_F(PipelineFault, ParallelRunPropagatesConsumerFault)
{
    // One worker per consumer: the faulting consumer's worker
    // throws mid-stream; the pool must stop (bounded ring ⇒ a
    // stuck producer would deadlock if stop didn't reach it),
    // every worker must join, and the fault must surface here.
    AnalysisPipeline pipeline = faultingPipeline(1000);
    TraceSource source(trace_);
    ParallelOptions opt;
    opt.window = 256;
    opt.depth = 2;
    EXPECT_THROW(pipeline.run(source, opt), std::runtime_error);
}

TEST_F(PipelineFault, SequentialRunPropagatesConsumerFault)
{
    AnalysisPipeline pipeline = faultingPipeline(1000);
    TraceSource source(trace_);
    EXPECT_THROW(pipeline.run(source), std::runtime_error);
}

TEST_F(PipelineFault, OneWorkerFaultThroughShardMerge)
{
    // The producer merges a shard set while a single worker runs
    // every consumer; the stop path must unwind both cleanly
    // (TSan/ASan jobs verify no leaked windows, threads or races
    // on this path).
    const std::string prefix = "/tmp/tc_pipeline_fault";
    {
        TraceSource source(trace_);
        std::string error;
        ASSERT_EQ(splitTraceStream(source, prefix, 3, &error),
                  trace_.size())
            << error;
    }
    AnalysisPipeline pipeline = faultingPipeline(500);
    auto source = openShardSet(prefix, 128);
    ASSERT_FALSE(source->failed()) << source->error();
    ParallelOptions opt;
    opt.workers = 1;
    opt.window = 128;
    opt.depth = 4;
    EXPECT_THROW(pipeline.run(*source, opt), std::runtime_error);
    for (std::uint32_t i = 0; i < 3; i++)
        std::remove(shardPath(prefix, i).c_str());
}

TEST_F(PipelineFault, PipelineIsReusableAfterParallelFault)
{
    // A fault aborts one run, not the pipeline: the next run
    // begins every consumer anew and must produce clean results
    // (with a fuse long enough to outlast the whole stream).
    AnalysisPipeline pipeline = faultingPipeline(800);
    TraceSource faulty(trace_);
    ParallelOptions opt;
    opt.window = 64;
    EXPECT_THROW(pipeline.run(faulty, opt), std::runtime_error);

    Trace clean;
    clean.write(0, 0);
    clean.write(1, 0);
    TraceSource source(clean);
    const auto reports = pipeline.run(source, opt);
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].result.races.total(), 1u);
    EXPECT_EQ(reports[3].result.races.total(), 1u);
}

/** An analysis that throws when it runs on @p caller while
 * @p armed: a fault only the calling thread can meet. */
class CallerFault final : public AnalysisConsumer
{
  public:
    CallerFault(std::unique_ptr<AnalysisConsumer> inner,
                const bool &armed, std::thread::id caller)
        : inner_(std::move(inner)), armed_(armed), caller_(caller)
    {}

    const std::string &name() const override { return inner_->name(); }
    void begin(const SourceInfo &si) override { inner_->begin(si); }
    void
    consume(const Event &e) override
    {
        if (armed_ && std::this_thread::get_id() == caller_)
            throw std::runtime_error("fault on the calling thread");
        inner_->consume(e);
    }
    EngineResult result() const override { return inner_->result(); }
    void
    saveState(ByteSink &out) const override
    {
        inner_->saveState(out);
    }
    bool
    restoreState(ByteSource &in) override
    {
        return inner_->restoreState(in);
    }

  private:
    std::unique_ptr<AnalysisConsumer> inner_;
    const bool &armed_;
    std::thread::id caller_;
};

TEST_F(PipelineFault, FaultOnTheCallingThreadStopsThePool)
{
    // Six lanes, one worker, depth 1: the ring is full after every
    // publish, so the calling thread runs lanes beside the worker,
    // and the first event it feeds throws. The pool must stop, the
    // worker join, that error surface here, and the next run must
    // equal the sequential one.
    bool armed = true;
    AnalysisPipeline pipeline;
    for (const char *po : {"hb", "shb", "maz"}) {
        for (const char *clock : {"tc", "vc"}) {
            pipeline.add(std::make_unique<CallerFault>(
                makeAnalysisConsumer(po, clock), armed,
                std::this_thread::get_id()));
        }
    }
    ParallelOptions opt;
    opt.workers = 1;
    opt.window = 16;
    opt.depth = 1;
    TraceSource faulty(trace_);
    try {
        pipeline.run(faulty, opt);
        ADD_FAILURE() << "the calling thread ran no lane";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "fault on the calling thread");
    }

    armed = false;
    TraceSource clean(trace_);
    const auto reports = pipeline.run(clean, opt);
    AnalysisPipeline sequential = fullPipeline();
    TraceSource ref(trace_);
    const auto expected = sequential.run(ref);
    ASSERT_EQ(reports.size(), expected.size());
    for (std::size_t i = 0; i < reports.size(); i++) {
        EXPECT_EQ(expected[i].result.events, reports[i].result.events)
            << reports[i].name;
        expectSameRaces(expected[i].result.races,
                        reports[i].result.races, reports[i].name);
        EXPECT_EQ(expected[i].result.work.vtWork,
                  reports[i].result.work.vtWork)
            << reports[i].name;
    }
}

/** An hb/tc consumer that records the thread running it. */
class ThreadProbe final : public AnalysisConsumer
{
  public:
    const std::string &name() const override { return inner_->name(); }
    void begin(const SourceInfo &si) override { inner_->begin(si); }
    void
    consume(const Event &e) override
    {
        thread_ = std::this_thread::get_id();
        inner_->consume(e);
    }
    EngineResult result() const override { return inner_->result(); }
    void
    saveState(ByteSink &out) const override
    {
        inner_->saveState(out);
    }
    bool
    restoreState(ByteSource &in) override
    {
        return inner_->restoreState(in);
    }

    std::thread::id thread() const { return thread_; }

  private:
    std::unique_ptr<AnalysisConsumer> inner_ =
        makeAnalysisConsumer("hb", "tc");
    std::thread::id thread_;
};

TEST(PipelineParallel, WorkerCapAndOneWorkerTakesTheBus)
{
    // workers > consumers is capped, so a single-consumer pipeline
    // runs one worker whatever is asked. One worker is still a
    // pool: the consumer runs behind the bus, off the calling
    // thread. All must agree with the dedicated reference.
    Trace racy;
    for (Tid t = 0; t < 4; t++)
        racy.write(t, 0);
    for (const std::size_t workers : {1u, 2u, 16u}) {
        AnalysisPipeline pipeline;
        auto probe = std::make_unique<ThreadProbe>();
        const ThreadProbe &seen = *probe;
        pipeline.add(std::move(probe));
        TraceSource source(racy);
        ParallelOptions opt;
        opt.workers = workers;
        const auto reports = pipeline.run(source, opt);
        ASSERT_EQ(reports.size(), 1u);
        EXPECT_EQ(reports[0].result.races.total(), 3u)
            << "workers=" << workers;
        EXPECT_NE(seen.thread(), std::thread::id())
            << "workers=" << workers;
        EXPECT_NE(seen.thread(), std::this_thread::get_id())
            << "workers=" << workers;
    }
}

TEST(Pipeline, UnknownNamesReturnNull)
{
    EXPECT_EQ(makeAnalysisConsumer("wcp", "tc"), nullptr);
    EXPECT_EQ(makeAnalysisConsumer("hb", "sparse"), nullptr);
    EXPECT_EQ(makeAnalysisConsumer("", ""), nullptr);
}

TEST(Pipeline, ConsumerNamesFollowPoSlashClock)
{
    const auto consumer = makeAnalysisConsumer("shb", "vc");
    ASSERT_NE(consumer, nullptr);
    EXPECT_EQ(consumer->name(), "shb/vc");
}

} // namespace
} // namespace tc
