/**
 * @file
 * Streaming-core overhead harness: the same workload analyzed
 * (a) batch — materialized Trace through run(Trace),
 * (b) via an in-memory TraceSource (virtual dispatch per event),
 * (c) out-of-core — the chunked binary file reader, which never
 *     holds more than a fixed window of events,
 * (d) prefetch — (c) decorated with the background reader thread
 *     (decode of window N+1 overlaps analysis of window N),
 * (e) shard_merge — a K-shard capture K-way-merged back into the
 *     total order,
 * (f) shard_prefetch — (e) behind the prefetch decorator,
 * (g) fanout_seq — the full 6-analysis cross product (hb,shb,maz ×
 *     tc,vc) as one sequential AnalysisPipeline pass,
 * (h) parallel_fanout — (g) on the per-consumer worker pool over
 *     shared zero-copy windows (--workers caps the pool),
 * (i) parallel_fanout_stream — (h) over the full out-of-core stack
 *     (file reader behind the async prefetch decorator), exposing
 *     the decode-overlap × fan-out product,
 * (j) checkpoint_overhead — the checkpointed drain
 *     (runWithCheckpoints) with snapshots every
 *     --checkpoint-every events vs the same driver with
 *     checkpointing disabled (entries checkpoint_on/checkpoint_off
 *     per clock). CI gates the ratio: durability must stay ≤5%
 *     of streaming throughput at the default 1M-event cadence
 *     (ci/check_checkpoint_overhead.py),
 * (k) lifecycle_footprint — a dynamic-membership pool workload
 *     (src/gen/pool_workload.hh): --pool-tasks logical threads
 *     created and retired through a --pool-size live window.
 *     Entries lifecycle_footprint/{TC,VC} carry clock_bytes_peak
 *     (TC must sit strictly below VC — slot recycling vs
 *     external indexing) and lifecycle_bound/TC repeats the TC
 *     leg at 10x the tasks to pin that its peak is set by the
 *     pool width, not the task count,
 * (l) decode_io — pure decode drains (no analysis) of the same
 *     bytes through each --io byte source: buffered stream vs the
 *     mmap in-place decoder, for both the single .tcb file and the
 *     K-shard merged set, plus the prefetch decorator over the
 *     stream reader as the pre-existing overlap point of reference
 *     (entries decode_{tcb,shards}_{stream,mmap} and
 *     decode_tcb_prefetch). CI floors mmap against stream.
 *
 * Reports events/s per (mode, clock), quantifying what "streaming
 * SHB/MAZ by default" costs over the batch loop, how much of the
 * file-stream overhead the async prefetch hides, and what the
 * worker pool buys the multi-analysis cross product. --mode
 * selects a comma-separated subset (default: all of them).
 *
 *   ./bench_streaming --events=2000000 --po=shb --json=out.json
 *   ./bench_streaming --mode=fanout_seq,parallel_fanout
 */

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <dirent.h>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/pipeline.hh"
#include "bench_common.hh"
#include "gen/pool_workload.hh"
#include "support/table.hh"
#include "trace/prefetch_source.hh"
#include "trace/shard.hh"
#include "trace/snapshot.hh"
#include "trace/trace_io.hh"

using namespace tc;
using namespace tc::bench;

namespace {

/**
 * Best (minimum) of @p reps timed runs. This harness feeds the CI
 * throughput gate, so it wants the noise-floor-free estimate: a
 * run can only be slowed by scheduler/cache interference, never
 * sped up, so the fastest repetition is the most reproducible
 * one. (The paper-figure harnesses keep reporting means — they
 * compare data structures on one machine, not one machine against
 * its own past.)
 */
/**
 * One warm-up call (r == 0: caches, file pages, allocator state),
 * then the best (minimum) of @p reps timed calls of @p run — the
 * single estimator behind every mode in this harness. @p reps
 * must be >= 1 (main clamps).
 */
template <typename Fn>
double
bestOfReps(int reps, Fn &&run)
{
    double best = 0;
    for (int r = 0; r <= reps; r++) {
        const double t = run();
        if (r == 1 || (r > 1 && t < best))
            best = t;
    }
    return best;
}

template <typename ClockT>
double
timePoSource(Po po, EventSource &source, int reps,
             EngineConfig base = {})
{
    return bestOfReps(reps, [&] {
        switch (po) {
          case Po::MAZ:
            return timeOneSource<MazEngine, ClockT>(source, base);
          case Po::SHB:
            return timeOneSource<ShbEngine, ClockT>(source, base);
          case Po::HB:
            return timeOneSource<HbEngine, ClockT>(source, base);
        }
        return 0.0;
    });
}

/** Batch-mode twin of timePoSource: same best-of estimator so the
 * harness's batch-vs-streaming comparison (and the CI gate rows)
 * use one statistic throughout — bench_common's timePo keeps its
 * mean for the paper-figure harnesses. */
template <typename ClockT>
double
timePoBatch(Po po, const Trace &trace, int reps)
{
    EngineConfig base;
    base.analysis = true;
    return bestOfReps(reps, [&] {
        switch (po) {
          case Po::MAZ:
            return timeOne<MazEngine, ClockT>(trace, base);
          case Po::SHB:
            return timeOne<ShbEngine, ClockT>(trace, base);
          case Po::HB:
            return timeOne<HbEngine, ClockT>(trace, base);
        }
        return 0.0;
    });
}

/** The 6-analysis cross product every fan-out mode times. */
AnalysisPipeline
fullCrossProduct()
{
    AnalysisPipeline pipeline;
    for (const char *po : {"hb", "shb", "maz"}) {
        for (const char *clock : {"tc", "vc"})
            pipeline.add(makeAnalysisConsumer(po, clock));
    }
    return pipeline;
}

/** Best seconds for one pipeline pass over the rewound @p source
 * (sequential when @p workers == 0, else the worker pool); best-of
 * for the same gate-stability reason as timePoSource. */
double
timeFanout(EventSource &source, int reps, std::size_t workers,
           std::size_t window)
{
    AnalysisPipeline pipeline = fullCrossProduct();
    return bestOfReps(reps, [&] {
        if (!source.rewind()) {
            std::fprintf(stderr,
                         "bench: event source cannot rewind\n");
            std::abort();
        }
        Timer timer;
        if (workers == 0) {
            pipeline.run(source);
        } else {
            ParallelOptions opt;
            opt.workers = workers;
            opt.window = window;
            pipeline.run(source, opt);
        }
        const double t = timer.seconds();
        if (source.failed()) {
            std::fprintf(stderr,
                         "bench: event source failed: %s\n",
                         source.error().c_str());
            std::abort();
        }
        return t;
    });
}

constexpr const char *kModeNames[] = {
    "batch",          "trace_source",
    "file_stream",    "prefetch",
    "shard_merge",    "shard_prefetch",
    "fanout_seq",     "parallel_fanout",
    "parallel_fanout_stream",
    "checkpoint_overhead",
    "lifecycle_footprint",
    "decode_io",
};

/** Best seconds for one checkpointed drain of @p trace through one
 * (po, clock) analysis: every == 0 is the control (the same
 * runWithCheckpoints driver with checkpointing disabled), so the
 * on/off ratio isolates exactly what the snapshot protocol costs —
 * serialization, CRC, fsync, rename — and nothing else. */
double
timeCheckpointedDrain(const Trace &trace, const std::string &po,
                      const char *clock, std::uint64_t every,
                      const std::string &dir, int reps)
{
    return bestOfReps(reps, [&] {
        AnalysisPipeline pipeline;
        pipeline.add(makeAnalysisConsumer(po.c_str(), clock));
        TraceSource source(trace);
        pipeline.beginAll(source.info());
        CheckpointOptions options;
        options.every = every;
        options.dir = dir;
        options.keep = 1;
        std::vector<AnalysisReport> reports;
        std::string error;
        Timer timer;
        if (!runWithCheckpoints(pipeline, source, 0, options,
                                &reports, &error)) {
            std::fprintf(stderr,
                         "bench: checkpointed drain failed: %s\n",
                         error.c_str());
            std::abort();
        }
        const double t = timer.seconds();
        if (source.failed()) {
            std::fprintf(stderr,
                         "bench: event source failed: %s\n",
                         source.error().c_str());
            std::abort();
        }
        return t;
    });
}

/** Remove every regular file in @p dir, then @p dir itself (the
 * checkpoint_overhead scratch snapshots). */
void
removeScratchDir(const std::string &dir)
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

/** Pure-drain throughput of @p source: decode (and merge) cost
 * alone, no analysis behind it (the decode_io mode). */
double
timeDrain(EventSource &source, int reps)
{
    return bestOfReps(reps, [&] {
        if (!source.rewind()) {
            std::fprintf(stderr,
                         "bench: event source cannot rewind\n");
            std::abort();
        }
        Timer timer;
        Event buf[4096];
        while (source.read(buf, sizeof(buf) / sizeof(buf[0])) !=
               0) {
        }
        const double t = timer.seconds();
        if (source.failed()) {
            std::fprintf(stderr,
                         "bench: event source failed: %s\n",
                         source.error().c_str());
            std::abort();
        }
        return t;
    });
}

/** Every --mode token must name a real mode (or "all"): a typo
 * that silently selects nothing would exit 0 with an empty
 * report, which reads as "measured and fine". Empty tokens
 * (trailing comma) are ignored. */
bool
validateModeFilter(const std::string &filter)
{
    for (const std::string &raw : splitString(filter, ',')) {
        const std::string m = trimString(raw);
        if (m.empty() || m == "all")
            continue;
        bool known = false;
        for (const char *name : kModeNames)
            known = known || m == name;
        if (!known) {
            std::fprintf(stderr,
                         "error: unknown --mode '%s' (see --help "
                         "for the mode list)\n",
                         m.c_str());
            return false;
        }
    }
    return true;
}

/** --mode filter: comma list; "all" anywhere in it (or an empty
 * filter) selects everything. */
bool
modeEnabled(const std::string &filter, const char *mode)
{
    if (filter.empty())
        return true;
    bool any = false;
    for (const std::string &raw : splitString(filter, ',')) {
        const std::string m = trimString(raw);
        any = any || !m.empty();
        if (m == "all" || m == mode)
            return true;
    }
    return !any; // ","-only filters behave like the empty one
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("streaming vs batch analysis throughput");
    addCommonFlags(args);
    addJsonFlag(args);
    args.addInt("events", 1000000, "workload event count");
    args.addInt("threads", 16, "workload threads");
    args.addString("po", "hb", "partial order: hb | shb | maz");
    args.addString("file", "/tmp/tc_bench_streaming.tcb",
                   "scratch trace file for the out-of-core mode");
    args.addInt("shards", static_cast<std::int64_t>(
                              kDefaultShardCount),
                "shard count for the shard_merge modes");
    args.addInt("window", static_cast<std::int64_t>(
                              kDefaultSourceWindow),
                "reader/prefetch window (events)");
    args.addString("mode", "all",
                   "comma list of modes to run: batch | "
                   "trace_source | file_stream | prefetch | "
                   "shard_merge | shard_prefetch | fanout_seq | "
                   "parallel_fanout | parallel_fanout_stream | "
                   "checkpoint_overhead | lifecycle_footprint | "
                   "decode_io | all");
    args.addInt("checkpoint-every",
                static_cast<std::int64_t>(1000000),
                "snapshot cadence (events) for the "
                "checkpoint_overhead mode");
    args.addInt("workers", 0,
                "worker threads for parallel_fanout (0 = one per "
                "analysis)");
    args.addInt("pool-size", 8,
                "live-task pool width (lifecycle_footprint mode)");
    args.addInt("pool-tasks", 10000,
                "logical threads created and retired "
                "(lifecycle_footprint mode; the TC-only bound leg "
                "runs 10x this)");
    if (!args.parse(argc, argv))
        return 1;

    const double scale = args.getDouble("scale");
    // bestOfReps needs at least one timed run after the warm-up.
    const int reps =
        std::max(1, static_cast<int>(args.getInt("reps")));
    const std::int64_t window_raw = args.getInt("window");
    if (window_raw < 1 || window_raw > (1 << 24)) {
        std::fprintf(stderr,
                     "error: --window must be in 1..%d\n", 1 << 24);
        return 1;
    }
    const auto window = static_cast<std::size_t>(window_raw);
    const std::string po_name = args.getString("po");
    const Po po = po_name == "maz"   ? Po::MAZ
                  : po_name == "shb" ? Po::SHB
                                     : Po::HB;

    RandomTraceParams params;
    params.threads = static_cast<Tid>(args.getInt("threads"));
    params.events = static_cast<std::uint64_t>(
        static_cast<double>(args.getInt("events")) * scale);
    params.vars = 4096;
    params.locks = 16;
    params.syncRatio = 0.1;
    const Trace trace = generateRandomTrace(params);

    // Scratch artifacts only for the modes that read them: the
    // trace file for the file-backed modes, the shard set for the
    // shard modes.
    const std::string path = args.getString("file");
    const std::string mode_filter = args.getString("mode");
    if (!validateModeFilter(mode_filter))
        return 1;
    const bool need_file =
        modeEnabled(mode_filter, "file_stream") ||
        modeEnabled(mode_filter, "prefetch") ||
        modeEnabled(mode_filter, "parallel_fanout_stream") ||
        modeEnabled(mode_filter, "decode_io");
    if (need_file && !saveTrace(trace, path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.c_str());
        return 1;
    }
    const std::int64_t shards_raw = args.getInt("shards");
    if (shards_raw < 1 || shards_raw > 256) {
        std::fprintf(stderr,
                     "error: --shards must be in 1..256\n");
        return 1;
    }
    const auto shards = static_cast<std::uint32_t>(shards_raw);
    const std::string shard_prefix = path + ".shards";
    const bool need_shards =
        modeEnabled(mode_filter, "shard_merge") ||
        modeEnabled(mode_filter, "shard_prefetch") ||
        modeEnabled(mode_filter, "decode_io");
    if (need_shards) {
        TraceSource shard_feed(trace);
        std::string error;
        if (splitTraceStream(shard_feed, shard_prefix, shards,
                             &error) == kUnknownEventCount) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
    }

    const double n = static_cast<double>(trace.size());
    JsonReporter json;
    json.context("harness", "bench_streaming");
    json.context("po", po_name);

    Table table({"mode", "clock", "events/s"});

    auto report = [&](const char *mode, const char *clock,
                      double seconds) {
        const double rate = n / seconds;
        table.addRow({mode, clock,
                      humanCount(static_cast<std::uint64_t>(rate))});
        json.entry(std::string(mode) + "/" + clock);
        json.metric("events_per_s", rate);
    };

    auto runClock = [&]<typename ClockT>(const char *clock) {
        if (modeEnabled(mode_filter, "batch")) {
            report("batch", clock,
                   timePoBatch<ClockT>(po, trace, reps));
        }
        if (modeEnabled(mode_filter, "trace_source")) {
            TraceSource mem(trace);
            report("trace_source", clock,
                   timePoSource<ClockT>(po, mem, reps));
        }
        if (modeEnabled(mode_filter, "file_stream")) {
            const auto file = openTraceFile(path, window);
            report("file_stream", clock,
                   timePoSource<ClockT>(po, *file, reps));
        }
        if (modeEnabled(mode_filter, "prefetch")) {
            const auto prefetched = makePrefetchSource(
                openTraceFile(path, window), window);
            report("prefetch", clock,
                   timePoSource<ClockT>(po, *prefetched, reps));
        }
        if (modeEnabled(mode_filter, "shard_merge")) {
            const auto merged = openShardSet(shard_prefix, window);
            report("shard_merge", clock,
                   timePoSource<ClockT>(po, *merged, reps));
        }
        if (modeEnabled(mode_filter, "shard_prefetch")) {
            const auto merged_prefetched = makePrefetchSource(
                openShardSet(shard_prefix, window), window);
            report("shard_prefetch", clock,
                   timePoSource<ClockT>(
                       po, *merged_prefetched, reps));
        }
    };
    runClock.template operator()<TreeClock>("TC");
    runClock.template operator()<VectorClock>("VC");

    // The fan-out modes run the full (hb,shb,maz) × (tc,vc) cross
    // product — the multi-analysis workload the worker pool exists
    // for — over the materialized trace, isolating fan-out
    // parallelism from decode parallelism (prefetch covers that).
    if (modeEnabled(mode_filter, "fanout_seq")) {
        TraceSource mem(trace);
        report("fanout_seq", "6x",
               timeFanout(mem, reps, 0, window));
    }
    const std::int64_t workers_raw = args.getInt("workers");
    if (workers_raw < 0 || workers_raw > 64) {
        std::fprintf(stderr,
                     "error: --workers must be in 0..64\n");
        return 1;
    }
    // Default: one worker per analysis, capped at the cores
    // actually present — oversubscribing a small machine
    // measures scheduler thrash, not the fan-out.
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        workers_raw > 0
            ? static_cast<std::size_t>(workers_raw)
            : std::min<std::size_t>(6, hw == 0 ? 1 : hw);
    if (modeEnabled(mode_filter, "parallel_fanout")) {
        TraceSource mem(trace);
        report("parallel_fanout", "6x",
               timeFanout(mem, reps, workers, window));
    }
    if (modeEnabled(mode_filter, "parallel_fanout_stream")) {
        // The full production stack: out-of-core file reader,
        // async prefetch decode, parallel 6-analysis fan-out —
        // decode overlap × fan-out parallelism in one number.
        const auto streamed = makePrefetchSource(
            openTraceFile(path, window), window);
        report("parallel_fanout_stream", "6x",
               timeFanout(*streamed, reps, workers, window));
    }
    if (modeEnabled(mode_filter, "checkpoint_overhead")) {
        const std::int64_t every_raw =
            args.getInt("checkpoint-every");
        if (every_raw < 1) {
            std::fprintf(stderr,
                         "error: --checkpoint-every must be >= 1\n");
            return 1;
        }
        const auto every = static_cast<std::uint64_t>(every_raw);
        const std::string snap_dir = path + ".snaps";
        removeScratchDir(snap_dir);
        if (mkdir(snap_dir.c_str(), 0755) != 0) {
            std::fprintf(stderr, "error: cannot create '%s'\n",
                         snap_dir.c_str());
            return 1;
        }
        for (const char *clock : {"tc", "vc"}) {
            const char *label = clock[0] == 't' ? "TC" : "VC";
            report("checkpoint_off", label,
                   timeCheckpointedDrain(trace, po_name, clock, 0,
                                         "", reps));
            report("checkpoint_on", label,
                   timeCheckpointedDrain(trace, po_name, clock,
                                         every, snap_dir, reps));
        }
        removeScratchDir(snap_dir);
    }
    if (modeEnabled(mode_filter, "lifecycle_footprint")) {
        // Dynamic-membership footprint: a pool workload creates
        // and retires far more logical threads than are ever live.
        // TC recycles retired slots (ThreadIdMap), so resident
        // clock bytes track the pool width; VC stays external-
        // indexed and grows with the total id count. Two legs:
        //  - lifecycle_footprint: TC vs VC on one trace (task
        //    count kept modest — the VC pass is O(total ids) per
        //    join and would dominate the harness otherwise),
        //  - lifecycle_bound: TC only at 10x the tasks; peak bytes
        //    must not scale with the task count (the CI docs quote
        //    this pair as the boundedness evidence).
        const std::int64_t pool_raw = args.getInt("pool-size");
        const std::int64_t tasks_raw = args.getInt("pool-tasks");
        if (pool_raw < 1 || pool_raw > 65535 || tasks_raw < 1) {
            std::fprintf(stderr,
                         "error: --pool-size must be in 1..65535 "
                         "and --pool-tasks >= 1\n");
            return 1;
        }
        PoolWorkloadParams pool_params;
        pool_params.poolSize = static_cast<Tid>(pool_raw);
        pool_params.tasks = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(tasks_raw) * scale));
        // Same var/lock widths as the harness's random workload:
        // the per-var reader sets stay shallow, so the timing
        // reflects clock costs, not access-history scans.
        pool_params.vars = params.vars;
        pool_params.locks = params.locks;
        const Trace pool_trace =
            generatePoolWorkload(pool_params);
        auto footprint = [&]<typename ClockT>(
                             const char *entry, const char *label,
                             const Trace &t,
                             std::uint64_t tasks) {
            const WorkCounters work =
                workPo<ClockT>(po, t, true);
            const double secs = bestOfReps(reps, [&] {
                return timePoBatch<ClockT>(po, t, 1);
            });
            const double rate =
                static_cast<double>(t.size()) / secs;
            table.addRow(
                {entry, label,
                 humanCount(static_cast<std::uint64_t>(rate))});
            json.entry(std::string(entry) + "/" + label);
            json.metric("events_per_s", rate);
            json.metric("clock_bytes_peak",
                        static_cast<double>(work.clockBytesPeak));
            json.metric("clock_bytes_resident",
                        static_cast<double>(work.clockBytes));
            std::printf("%s/%s: %llu bytes peak resident clocks "
                        "(%llu logical threads, pool %lld)\n",
                        entry, label,
                        static_cast<unsigned long long>(
                            work.clockBytesPeak),
                        static_cast<unsigned long long>(tasks),
                        static_cast<long long>(pool_raw));
        };
        footprint.template operator()<TreeClock>(
            "lifecycle_footprint", "TC", pool_trace,
            pool_params.tasks);
        footprint.template operator()<VectorClock>(
            "lifecycle_footprint", "VC", pool_trace,
            pool_params.tasks);
        PoolWorkloadParams bound_params = pool_params;
        bound_params.tasks = pool_params.tasks * 10;
        const Trace bound_trace =
            generatePoolWorkload(bound_params);
        footprint.template operator()<TreeClock>(
            "lifecycle_bound", "TC", bound_trace,
            bound_params.tasks);
    }
    if (modeEnabled(mode_filter, "decode_io")) {
        // Pure decode drain (no analysis) of the same bytes
        // through each --io byte source, for both container
        // formats the flag routes: the single .tcb file and the
        // K-shard merged set. The prefetch leg decorates the
        // stream reader — the pre-existing overlap mechanism mmap
        // is measured against. Where the build lacks mmap the Mmap
        // request degrades to the stream reader, so the pair
        // simply ties instead of failing.
        const auto tcb_stream =
            openTraceFile(path, window, IoMode::Stream);
        report("decode_tcb_stream", "drain",
               timeDrain(*tcb_stream, reps));
        const auto tcb_mmap =
            openTraceFile(path, window, IoMode::Mmap);
        report("decode_tcb_mmap", "drain",
               timeDrain(*tcb_mmap, reps));
        const auto tcb_prefetch = makePrefetchSource(
            openTraceFile(path, window, IoMode::Stream), window);
        report("decode_tcb_prefetch", "drain",
               timeDrain(*tcb_prefetch, reps));
        const auto shards_stream =
            openShardSet(shard_prefix, window, IoMode::Stream);
        report("decode_shards_stream", "drain",
               timeDrain(*shards_stream, reps));
        const auto shards_mmap =
            openShardSet(shard_prefix, window, IoMode::Mmap);
        report("decode_shards_mmap", "drain",
               timeDrain(*shards_mmap, reps));
    }

    table.print(std::cout);
    if (need_file)
        std::remove(path.c_str());
    if (need_shards) {
        for (std::uint32_t i = 0; i < shards; i++)
            std::remove(shardPath(shard_prefix, i).c_str());
    }
    return maybeWriteJson(args, json) ? 0 : 1;
}
