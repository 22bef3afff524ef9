/**
 * @file
 * A command-line dynamic race detector — the paper's headline
 * application. Consumes any EventSource: a trace file (text .tct,
 * binary .tcb, or a sharded capture .tcs — see trace/shard.hh) or a
 * generated synthetic workload, and computes any set of partial
 * orders (HB, SHB, MAZ) with any set of clock structures (tree,
 * vector) in ONE pass over the input: the requested (po × clock)
 * combinations run as consumers of a shared AnalysisPipeline, so
 * the trace is read and decoded once no matter how many analyses
 * ride on it.
 *
 * By default file inputs are materialized once so the trace can be
 * validated and summarized before the timed analysis. With --stream
 * the file is consumed through the chunked readers instead: the
 * full event vector is never built, so traces larger than memory
 * analyze in O(window) input memory; --prefetch moves decode + I/O
 * to a background thread that stays one window ahead.
 *
 * Examples:
 *   ./race_detector --generate --threads=16 --events=1000000
 *   ./race_detector --trace=run.tct --po=shb --clock=vc
 *   ./race_detector --trace=huge.tcb --stream --prefetch
 *   ./race_detector --trace=run.tcb --po=hb,shb,maz --clock=tc,vc
 *   ./race_detector --trace=cap.0.tcs --stream   # sharded capture
 *
 * With --parallel[=K] the fan-out runs on a worker pool (one worker
 * per analysis, or K workers round-robin over the analyses), all
 * borrowing the same zero-copy decode windows — results are
 * identical to the sequential pass:
 *
 *   ./race_detector --trace=huge.tcb --stream --prefetch \
 *       --po=hb,shb,maz --clock=tc,vc --parallel
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/pipeline.hh"
#include "gen/pool_workload.hh"
#include "support/diagnostics.hh"
#include "support/source_cli.hh"
#include "support/strings.hh"
#include "support/timer.hh"
#include "trace/fault_injection.hh"
#include "trace/snapshot.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

using namespace tc;

namespace {

void
printReport(const AnalysisReport &report)
{
    const EngineResult &r = report.result;
    std::printf("--- %s ---\n", report.name.c_str());
    std::printf("races           : %llu  (w-w %llu, w-r %llu, "
                "r-w %llu)\n",
                static_cast<unsigned long long>(r.races.total()),
                static_cast<unsigned long long>(
                    r.races.writeWrite()),
                static_cast<unsigned long long>(
                    r.races.writeRead()),
                static_cast<unsigned long long>(
                    r.races.readWrite()));
    std::printf("racy variables  : %llu\n",
                static_cast<unsigned long long>(
                    r.races.racyVarCount()));
    std::printf("clock work      : %llu entries touched, %llu "
                "entries changed\n",
                static_cast<unsigned long long>(r.work.dsWork),
                static_cast<unsigned long long>(r.work.vtWork));
    std::printf("clock bytes     : %llu resident, %llu peak\n",
                static_cast<unsigned long long>(r.work.clockBytes),
                static_cast<unsigned long long>(
                    r.work.clockBytesPeak));
    if (!r.races.reports().empty()) {
        std::printf("first %zu race reports:\n",
                    r.races.reports().size());
        for (const RacePair &race : r.races.reports())
            std::printf("  %s\n", race.toString().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("dynamic race detector (HB/SHB/MAZ, tree or "
                   "vector clocks; one input pass for any number "
                   "of analyses)");
    addTraceSourceFlags(args);
    args.addBool("stream", false,
                 "consume --trace through the chunked reader "
                 "(out-of-core; whole-trace validation is skipped, "
                 "but every lock, fork/join and lifecycle rule is "
                 "checked event by event: a violation exits 2 with "
                 "the materialized path's line)");
    args.addString("po", "hb",
                   "partial orders, comma-separated: hb | shb | "
                   "maz");
    args.addString("clock", "tc",
                   "clock data structures, comma-separated: tc | "
                   "vc");
    addParallelFlag(args);
    args.addBool("pool", false,
                 "generate a task-pool workload with lifecycle "
                 "events instead of the flat random trace "
                 "(implies --generate)");
    args.addInt("pool-size", 8, "max live tasks (--pool)");
    args.addInt("tasks", 1000,
                "logical threads created over the run (--pool)");
    args.addInt("task-events", 8, "body events per task (--pool)");
    args.addInt("max-reports", 10, "race reports to keep");
    args.addInt("checkpoint-every", 0,
                "write a snapshot every N events (0 = off; "
                "requires --snapshot-dir)");
    args.addString("snapshot-dir", "",
                   "directory holding .tcsnap checkpoints");
    args.addBool("resume", false,
                 "resume from the newest valid snapshot in "
                 "--snapshot-dir (corrupt ones are skipped with a "
                 "warning; none = clean start)");
    args.addString("resume-from", "",
                   "resume from exactly this snapshot file (no "
                   "fallback)");
    args.addInt("keep-snapshots", 3,
                "newest snapshots retained after each checkpoint "
                "(0 = keep all)");
    if (!args.parse(argc, argv))
        return kExitUsage;

    // Deterministic fault injection (crash/kill sweeps drive the
    // CLI through TC_FAILPOINTS / TC_FAULT_SEED).
    std::string failpoint_error;
    if (!FailpointRegistry::instance().armFromEnv(
            &failpoint_error))
        return reportError(failpoint_error, 0, kExitUsage);

    const bool has_trace = !args.getString("trace").empty();
    const bool pool = args.getBool("pool");
    if (!has_trace && !args.getBool("generate") && !pool) {
        std::fprintf(stderr,
                     "error: pass --trace=FILE, --generate or "
                     "--pool (see --help)\n");
        return kExitUsage;
    }
    if (has_trace && pool) {
        std::fprintf(stderr,
                     "error: --pool generates its workload; it "
                     "cannot be combined with --trace\n");
        return kExitUsage;
    }

    const std::uint64_t checkpoint_every =
        args.getInt("checkpoint-every") < 0
            ? 0
            : static_cast<std::uint64_t>(
                  args.getInt("checkpoint-every"));
    const std::string snapshot_dir =
        args.getString("snapshot-dir");
    const std::string resume_from = args.getString("resume-from");
    const bool resume_requested =
        args.getBool("resume") || !resume_from.empty();
    if (checkpoint_every > 0 && snapshot_dir.empty()) {
        std::fprintf(stderr,
                     "error: --checkpoint-every requires "
                     "--snapshot-dir\n");
        return kExitUsage;
    }
    if (args.getBool("resume") && snapshot_dir.empty() &&
        resume_from.empty()) {
        std::fprintf(stderr, "error: --resume requires "
                             "--snapshot-dir (or --resume-from)\n");
        return kExitUsage;
    }

    const bool stream = args.getBool("stream");
    if (checkpoint_every > 0 && !stream && has_trace) {
        // The point of checkpointing a file analysis is resuming
        // without re-reading the prefix; the materialized path
        // reloads the whole file anyway.
        std::fprintf(stderr,
                     "error: --checkpoint-every on a trace file "
                     "requires --stream\n");
        return kExitUsage;
    }
    if (args.getBool("prefetch") && !stream) {
        // The default path materializes the whole trace before
        // analysis; silently ignoring the flag would let users
        // believe background decode was measured.
        std::fprintf(stderr,
                     "error: --prefetch requires --stream\n");
        return kExitUsage;
    }
    if (stream && !has_trace) {
        // Generated workloads are materialized by construction, so
        // streaming them would only skip validation while keeping
        // O(events) memory — refuse rather than mislead.
        std::fprintf(stderr,
                     "error: --stream requires --trace=FILE\n");
        return kExitUsage;
    }
    // -1 is the bare-flag sentinel (one worker per analysis);
    // any other negative is a typo, not a request.
    if (args.getInt("parallel") < -1) {
        std::fprintf(stderr,
                     "error: --parallel expects a non-negative "
                     "worker count (bare --parallel = one per "
                     "analysis)\n");
        return kExitUsage;
    }
    std::unique_ptr<EventSource> source;
    if (!stream) {
        // Materialize once: whole-trace validation and the summary
        // header need the full event vector.
        Trace trace;
        if (has_trace) {
            ParseResult parsed = loadTrace(args.getString("trace"));
            if (!parsed.ok) {
                return reportError(
                    parsed.message, parsed.line,
                    exitCodeForMessage(parsed.message));
            }
            trace = std::move(parsed.trace);
        } else if (pool) {
            PoolWorkloadParams pparams;
            pparams.poolSize =
                static_cast<Tid>(args.getInt("pool-size"));
            pparams.tasks =
                static_cast<std::uint64_t>(args.getInt("tasks"));
            pparams.taskEvents = static_cast<std::uint64_t>(
                args.getInt("task-events"));
            pparams.locks =
                static_cast<LockId>(args.getInt("locks"));
            pparams.vars = static_cast<VarId>(args.getInt("vars"));
            pparams.syncRatio = args.getDouble("sync-ratio");
            pparams.seed =
                static_cast<std::uint64_t>(args.getInt("seed"));
            trace = generatePoolWorkload(pparams);
        } else {
            trace =
                generateRandomTrace(traceParamsFromFlags(args));
        }
        const ValidationResult valid = trace.validate();
        if (!valid.ok)
            return reportMalformedTrace(valid.eventIndex,
                                        valid.message);
        const TraceStats stats = computeStats(trace);
        std::printf("trace           : %s events, %d threads, "
                    "%s vars, %s locks, %.1f%% sync\n",
                    humanCount(stats.events).c_str(), stats.threads,
                    humanCount(stats.variables).c_str(),
                    humanCount(stats.locks).c_str(),
                    stats.syncPercent());
        source = std::make_unique<TraceSource>(std::move(trace));
    } else {
        source = makeEventSource(args);
        if (source->failed())
            return reportSourceError(*source);
        // With failpoints armed the stream goes through the
        // "source.next" decorator, so the kill/fault sweeps can
        // hit the read path too; disarmed runs skip the wrap
        // entirely.
        if (FailpointRegistry::instance().anyArmed())
            source = makeFaultInjectingSource(std::move(source));
        const SourceInfo si = source->info();
        std::printf("stream          : %s declared threads %d, "
                    "vars %s, locks %s\n",
                    si.eventCountKnown()
                        ? (humanCount(si.events) + " events")
                              .c_str()
                        : "unknown length",
                    si.threads,
                    humanCount(static_cast<std::uint64_t>(si.vars))
                        .c_str(),
                    humanCount(
                        static_cast<std::uint64_t>(si.locks))
                        .c_str());
    }

    // One consumer per requested (po × clock); all of them drain
    // the single source pass below.
    AnalysisPipeline pipeline;
    EngineConfig cfg;
    cfg.maxReports =
        static_cast<std::size_t>(args.getInt("max-reports"));
    for (const std::string &po_raw :
         splitString(args.getString("po"), ',')) {
        const std::string po = trimString(po_raw);
        if (po.empty())
            continue;
        for (const std::string &clock_raw :
             splitString(args.getString("clock"), ',')) {
            const std::string clock = trimString(clock_raw);
            if (clock.empty())
                continue;
            auto consumer = makeAnalysisConsumer(po, clock, cfg);
            if (consumer == nullptr) {
                std::fprintf(stderr,
                             "error: unknown analysis '%s/%s' "
                             "(po: hb|shb|maz, clock: tc|vc)\n",
                             po.c_str(), clock.c_str());
                return kExitUsage;
            }
            pipeline.add(std::move(consumer));
        }
    }
    if (pipeline.empty()) {
        std::fprintf(stderr, "error: no analyses requested\n");
        return kExitUsage;
    }
    const std::size_t parallel = parallelWorkersFromFlags(args);
    const std::size_t pool_size =
        parallel == 0 ? 0
                      : std::min(parallel == kParallelAuto
                                     ? pipeline.size()
                                     : parallel,
                                 pipeline.size());
    std::printf("configuration   : %zu analyses (po=%s × "
                "clock=%s)%s",
                pipeline.size(), args.getString("po").c_str(),
                args.getString("clock").c_str(),
                stream ? " (streaming)" : "");
    if (pool_size > 1)
        std::printf(" (%zu workers)", pool_size);
    std::printf("\n");

    Timer timer;
    ParallelOptions popt;
    popt.workers = pool_size;
    std::vector<AnalysisReport> reports;
    try {
        if (checkpoint_every == 0 && !resume_requested) {
            reports = pool_size > 1 ? pipeline.run(*source, popt)
                                    : pipeline.run(*source);
        } else {
            CheckpointOptions copt;
            copt.every = checkpoint_every;
            copt.dir = snapshot_dir;
            copt.keep = args.getInt("keep-snapshots") < 0
                            ? 0
                            : static_cast<std::size_t>(
                                  args.getInt("keep-snapshots"));
            copt.parallel = popt;
            copt.useParallel = pool_size > 1;
            std::uint64_t start = 0;
            bool resumed = false;
            if (resume_requested) {
                ResumeResult rr;
                std::string err;
                if (!resumeFromDir(snapshot_dir, copt.base,
                                   resume_from, pipeline, &rr, &err))
                    return reportError(err, 0,
                                       exitCodeForMessage(err));
                for (const std::string &diag : rr.diagnostics)
                    std::fprintf(stderr,
                                 "warning: skipping snapshot: %s\n",
                                 diag.c_str());
                if (rr.resumed) {
                    // O(tail): the source repositions without
                    // decoding the already-analyzed prefix.
                    if (!source->seekToSequence(rr.position)) {
                        if (source->failed())
                            return reportSourceError(*source);
                        return reportError(
                            "input does not support seeking to the "
                            "snapshot position",
                            0, kExitIo);
                    }
                    start = rr.position;
                    resumed = true;
                    std::printf("resumed         : %s (event %llu)\n",
                                rr.path.c_str(),
                                static_cast<unsigned long long>(
                                    rr.position));
                } else {
                    std::printf("resumed         : no usable "
                                "snapshot, starting clean\n");
                }
            }
            if (!resumed)
                pipeline.beginAll(source->info());
            std::string err;
            if (!runWithCheckpoints(pipeline, *source, start, copt,
                                    &reports, &err))
                return reportError(err, 0, exitCodeForMessage(err));
        }
    } catch (const TraceInputError &err) {
        // A streamed lock or thread-protocol violation: the same
        // event and message validate() reports on the materialized
        // path.
        return reportMalformedTrace(err.eventIndex, err.what());
    }
    const double seconds = timer.seconds();
    if (source->failed())
        return reportSourceError(*source);

    const std::uint64_t events =
        reports.empty() ? 0 : reports.front().result.events;
    std::printf("analysis time   : %.3f s (%s events/s through "
                "%zu analyses)\n",
                seconds,
                humanCount(static_cast<std::uint64_t>(
                               static_cast<double>(events) /
                               seconds))
                    .c_str(),
                reports.size());
    std::uint64_t total_races = 0;
    for (const AnalysisReport &report : reports) {
        printReport(report);
        total_races += report.result.races.total();
    }
    return total_races > 0 ? kExitFinding : kExitOk;
}
