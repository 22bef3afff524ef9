/**
 * @file
 * The traced run of the layered benchmark: times calls into each
 * layer's public functions over one workload's traces and prints one
 * JSON object (per-layer metrics plus every analysis result).
 *
 *   perfbench_layers WORKDIR FANOUT_WORKERS TRACE.tcb...
 *
 * Layers, and the calls timed in each:
 *  - src/trace: loadTrace (load), a drain of openTraceFile(.tcb)
 *    with no consumer (decode), splitTraceStream into a .tcs set in
 *    WORKDIR (capture) and a drain of that set (K-way merge);
 *  - src/analysis: AnalysisPipeline::run over an in-memory
 *    TraceSource, one makeAnalysisConsumer per (po, clock), and the
 *    parallel fan-out of all six on FANOUT_WORKERS workers;
 *  - src/core: the same six analyses as the real AnalysisDriver and
 *    policies over TracedClock, which times each clock operation.
 * Only entry points the CLIs call are used, with default arguments.
 * The printed results let run.py check that this harness and
 * race_detector agree on every (trace, po, clock).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hh"
#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/pipeline.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "trace/event_source.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"
#include "traced_clock.hh"

using namespace tc;
using perfbench::g_heapAllocs;
using perfbench::g_opStats;
using perfbench::kOpCount;
using perfbench::kOpNames;
using perfbench::OpClock;
using perfbench::OpStats;
using perfbench::TracedClock;

namespace {

constexpr const char *kPos[] = {"hb", "shb", "maz"};
constexpr const char *kClocks[] = {"tc", "vc"};
/** Analyses are indexed po * 2 + clock. */
constexpr int kAnalyses = 6;
/** race_detector's --max-reports default; kept reports allocate. */
constexpr std::size_t kMaxReports = 10;

double
since(OpClock::time_point start)
{
    return std::chrono::duration<double>(OpClock::now() - start).count();
}

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(1);
}

EngineConfig
cliConfig()
{
    EngineConfig cfg;
    cfg.maxReports = kMaxReports;
    return cfg;
}

template <template <typename> class Policy>
std::unique_ptr<AnalysisConsumer>
tracedConsumer(int clock, std::string name)
{
    if (clock == 0) {
        return std::make_unique<
            DriverConsumer<TracedClock<TreeClock>, Policy>>(
            std::move(name), cliConfig());
    }
    return std::make_unique<
        DriverConsumer<TracedClock<VectorClock>, Policy>>(
        std::move(name), cliConfig());
}

std::unique_ptr<AnalysisConsumer>
makeTracedConsumer(int po, int clock)
{
    std::string name = std::string(kPos[po]) + "/" + kClocks[clock];
    switch (po) {
      case 0: return tracedConsumer<HbPolicy>(clock, std::move(name));
      case 1: return tracedConsumer<ShbPolicy>(clock, std::move(name));
      default: return tracedConsumer<MazPolicy>(clock, std::move(name));
    }
}

/** One consumer over an in-memory trace; the timed span is the
 * pipeline run alone, as race_detector times it. */
EngineResult
runOne(std::unique_ptr<AnalysisConsumer> consumer, const Trace &trace,
       double *seconds)
{
    AnalysisPipeline pipeline;
    pipeline.add(std::move(consumer));
    TraceSource source(trace);
    const auto start = OpClock::now();
    std::vector<AnalysisReport> reports = pipeline.run(source);
    *seconds = since(start);
    return reports.front().result;
}

std::uint64_t
drain(EventSource &source, const std::string &what)
{
    if (source.failed())
        die(what + ": " + source.error());
    std::vector<Event> storage;
    EventWindow window;
    std::uint64_t events = 0;
    while (!(window = source.readWindow(storage, kDefaultSourceWindow))
                .empty())
        events += window.size;
    if (source.failed())
        die(what + ": " + source.error());
    return events;
}

/** Mean cost of one record() around an empty region: what every
 * timed clock operation pays on top of its own work. */
double
timerCostNs()
{
    OpStats stats;
    g_opStats = &stats;
    constexpr int kRounds = 1 << 20;
    for (int i = 0; i < kRounds; i++)
        perfbench::record(perfbench::kIncrement, OpClock::now());
    g_opStats = nullptr;
    return static_cast<double>(stats.ns[perfbench::kIncrement]) /
           kRounds;
}

/** The reported identity of one analysis result. */
std::string
outcome(const EngineResult &r)
{
    const RaceSummary &races = r.races;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "[%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu]",
                  static_cast<unsigned long long>(races.total()),
                  static_cast<unsigned long long>(races.writeWrite()),
                  static_cast<unsigned long long>(races.writeRead()),
                  static_cast<unsigned long long>(races.readWrite()),
                  static_cast<unsigned long long>(races.racyVarCount()),
                  static_cast<unsigned long long>(r.work.dsWork),
                  static_cast<unsigned long long>(r.work.vtWork),
                  static_cast<unsigned long long>(
                      r.work.clockBytesPeak));
    return buf;
}

std::string
baseName(const std::string &path)
{
    std::string name = path.substr(path.find_last_of('/') + 1);
    return name.substr(0, name.rfind('.'));
}

/** Everything measured for one (po, clock), summed over traces. */
struct AnalysisTotals
{
    double busySeconds = 0;
    double tracedSeconds = 0;
    std::uint64_t heapAllocs = 0;
    std::uint64_t dsWork = 0;
    std::uint64_t vtWork = 0;
    std::uint64_t clockBytesPeak = 0; ///< max over traces
    OpStats ops;
};

class JsonMetrics
{
  public:
    void
    add(const std::string &name, double value)
    {
        std::printf("%s\"%s\": %.17g", first_ ? "" : ", ", name.c_str(),
                    value);
        first_ = false;
    }

  private:
    bool first_ = true;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: perfbench_layers WORKDIR "
                             "FANOUT_WORKERS TRACE.tcb...\n");
        return 1;
    }
    const std::string workdir = argv[1];
    const auto fanout_workers =
        static_cast<std::size_t>(std::strtoul(argv[2], nullptr, 10));
    const double timer_ns = timerCostNs();

    std::uint64_t events = 0;
    double load_s = 0, decode_s = 0, capture_s = 0, merge_s = 0;
    double fanout_wall_s = 0, fanout_critical_s = 0;
    AnalysisTotals totals[kAnalyses];
    std::string results;

    for (int a = 3; a < argc; a++) {
        const std::string path = argv[a];
        const std::string name = baseName(path);

        auto start = OpClock::now();
        ParseResult parsed = loadTrace(path);
        load_s += since(start);
        if (!parsed.ok)
            die(path + ": " + parsed.message);
        const Trace trace = std::move(parsed.trace);
        events += trace.size();

        start = OpClock::now();
        const std::uint64_t decoded =
            drain(*openTraceFile(path), path);
        decode_s += since(start);
        if (decoded != trace.size())
            die(path + ": decode drained a different event count");

        const std::string prefix = workdir + "/" + name + "-layers";
        std::string error;
        start = OpClock::now();
        const std::uint64_t written = splitTraceStream(
            *openTraceFile(path), prefix, kDefaultShardCount, &error);
        capture_s += since(start);
        if (written != trace.size())
            die(path + ": split failed: " + error);

        start = OpClock::now();
        const std::uint64_t merged = drain(
            *openTraceFile(shardPath(prefix, 0)), shardPath(prefix, 0));
        merge_s += since(start);
        if (merged != trace.size())
            die(path + ": merge drained a different event count");
        for (std::uint32_t i = 0; i < kDefaultShardCount; i++)
            std::remove(shardPath(prefix, i).c_str());

        double critical = 0;
        for (int i = 0; i < kAnalyses; i++) {
            AnalysisTotals &t = totals[i];
            const int po = i / 2, clock = i % 2;

            double busy = 0;
            const std::uint64_t allocs_before = g_heapAllocs.load();
            const EngineResult plain = runOne(
                makeAnalysisConsumer(kPos[po], kClocks[clock],
                                     cliConfig()),
                trace, &busy);
            t.heapAllocs += g_heapAllocs.load() - allocs_before;
            t.busySeconds += busy;
            critical = std::max(critical, busy);
            t.dsWork += plain.work.dsWork;
            t.vtWork += plain.work.vtWork;
            t.clockBytesPeak =
                std::max(t.clockBytesPeak, plain.work.clockBytesPeak);

            double traced_s = 0;
            g_opStats = &t.ops;
            const EngineResult traced =
                runOne(makeTracedConsumer(po, clock), trace, &traced_s);
            g_opStats = nullptr;
            t.tracedSeconds += traced_s;

            results += std::string(results.empty() ? "" : ", ") +
                       "{\"trace\": \"" + name + "\", \"analysis\": \"" +
                       kPos[po] + "/" + kClocks[clock] +
                       "\", \"plain\": " + outcome(plain) +
                       ", \"traced\": " + outcome(traced) + "}";
        }
        fanout_critical_s += critical;

        AnalysisPipeline fanout;
        for (const char *po : kPos) {
            for (const char *clock : kClocks)
                fanout.add(makeAnalysisConsumer(po, clock, cliConfig()));
        }
        TraceSource source(trace);
        ParallelOptions options;
        options.workers = fanout_workers;
        start = OpClock::now();
        fanout.run(source, options);
        fanout_wall_s += since(start);
    }

    const auto per_s = [events](double seconds) {
        return static_cast<double>(events) / seconds;
    };
    std::printf("{\"events\": %llu, \"timer_ns\": %.3f, \"metrics\": {",
                static_cast<unsigned long long>(events), timer_ns);
    JsonMetrics m;
    m.add("trace.load_s", load_s);
    m.add("trace.decode.events_per_s", per_s(decode_s));
    m.add("trace.merge.events_per_s", per_s(merge_s));
    m.add("trace.ingest_share",
          merge_s / (merge_s + totals[0].busySeconds));
    m.add("trace.capture.events_per_s", per_s(capture_s));
    double busy_sum = 0, traced_sum = 0;
    for (int i = 0; i < kAnalyses; i++) {
        const AnalysisTotals &t = totals[i];
        const std::string an = std::string(kPos[i / 2]) + "." +
                               kClocks[i % 2];
        double op_ns = 0, ds_op_ns = 0;
        for (int op = 0; op < kOpCount; op++) {
            // Net of the timer's own cost, which every call pays.
            const double net = std::max(
                0.0, static_cast<double>(t.ops.ns[op]) -
                         timer_ns * static_cast<double>(t.ops.calls[op]));
            op_ns += net;
            if (op != perfbench::kIncrement)
                ds_op_ns += net;
            const std::string key = "core." + an + "." + kOpNames[op];
            m.add(key + ".calls", static_cast<double>(t.ops.calls[op]));
            m.add(key + ".ns",
                  t.ops.calls[op] == 0
                      ? 0.0
                      : net / static_cast<double>(t.ops.calls[op]));
        }
        const std::string core = "core." + an + ".";
        m.add(core + "ds_work", static_cast<double>(t.dsWork));
        m.add(core + "vt_work", static_cast<double>(t.vtWork));
        m.add(core + "ds_per_vt",
              t.vtWork == 0 ? 0.0
                            : static_cast<double>(t.dsWork) /
                                  static_cast<double>(t.vtWork));
        m.add(core + "ns_per_ds_work",
              t.dsWork == 0 ? 0.0
                            : ds_op_ns / static_cast<double>(t.dsWork));
        m.add(core + "clock_bytes_peak",
              static_cast<double>(t.clockBytesPeak));
        m.add(core + "heap_allocs", static_cast<double>(t.heapAllocs));
        m.add("analysis." + an + ".busy_s", t.busySeconds);
        m.add("analysis." + an + ".self_s", t.busySeconds - op_ns * 1e-9);
        busy_sum += t.busySeconds;
        traced_sum += t.tracedSeconds;
    }
    m.add("analysis.fanout.critical_s", fanout_critical_s);
    m.add("analysis.fanout.overhead_s", fanout_wall_s - fanout_critical_s);
    m.add("trace_overhead_share", (traced_sum - busy_sum) / busy_sum);
    std::printf("}, \"results\": [%s]}\n", results.c_str());
    return 0;
}
