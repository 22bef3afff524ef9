/**
 * @file
 * Trace toolbox: inspect, validate, convert, slice and compact
 * treeclock trace files from the command line.
 *
 *   trace_tool stats    run.tct
 *   trace_tool validate run.tct
 *   trace_tool convert  run.tct run.tcb       (format by extension;
 *                                              a .tcs member input
 *                                              reads its whole set)
 *   trace_tool split    run.tct cap --shards=4   (cap.0.tcs ...)
 *   trace_tool slice    run.tct out.tct --vars=3,17,42
 *   trace_tool project  run.tct out.tct --threads=0,1
 *   trace_tool prefix   run.tct out.tct --events=100000
 *   trace_tool compact  run.tct out.tct
 *   trace_tool generate out.tcb --threads=16 --events=1000000
 *   trace_tool pool     out.tcb --pool-size=8 --tasks=100000
 *                                             (task-pool workload
 *                                              with lifecycle
 *                                              events: bounded live
 *                                              threads, unbounded
 *                                              logical thread ids)
 *
 * stats, convert and split consume the chunked streaming
 * readers and never materialize the trace, so they work on files
 * larger than memory; the structural commands
 * (slice/project/prefix/compact/validate) still load the full
 * event vector.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/cli.hh"
#include "support/diagnostics.hh"
#include "support/source_cli.hh"
#include "support/strings.hh"
#include "trace/event_source.hh"
#include "trace/fault_injection.hh"
#include "trace/shard.hh"
#include "trace/trace_io.hh"
#include "trace/trace_ops.hh"
#include "trace/trace_stats.hh"

using namespace tc;

namespace {

std::vector<std::int64_t>
parseIdList(const std::string &text)
{
    std::vector<std::int64_t> out;
    for (const std::string &part : splitString(text, ',')) {
        const std::string item = trimString(part);
        if (item.empty())
            continue;
        out.push_back(std::strtoll(item.c_str(), nullptr, 10));
    }
    return out;
}

Trace
loadOrDie(const std::string &path)
{
    ParseResult r = loadTrace(path);
    if (!r.ok) {
        std::exit(reportError(r.message, r.line,
                              exitCodeForMessage(r.message)));
    }
    return std::move(r.trace);
}

/** Open a chunked streaming reader, or die on open/header errors. */
std::unique_ptr<EventSource>
openOrDie(const std::string &path)
{
    auto source = openTraceFile(path);
    if (source->failed())
        std::exit(reportSourceError(*source));
    return source;
}

/** True when both paths name the same existing file (by inode, so
 * differently-spelled aliases and symlinks are caught). */
bool
sameFile(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    struct stat sa, sb;
    return ::stat(a.c_str(), &sa) == 0 &&
           ::stat(b.c_str(), &sb) == 0 &&
           sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

/** True when @p path names (by inode) any of @p inputs — the
 * overwrite guard for commands whose output files could alias the
 * files they are still reading. */
bool
aliasesAny(const std::string &path,
           const std::vector<std::string> &inputs)
{
    for (const std::string &in : inputs) {
        if (sameFile(in, path))
            return true;
    }
    return false;
}

/** Every member file of the shard set @p path belongs to (plus
 * @p path itself) — the full input list for the overwrite guards.
 * Non-shard paths contribute just themselves. */
std::vector<std::string>
inputFilesOf(const std::string &path)
{
    std::vector<std::string> files{path};
    std::string prefix;
    std::uint32_t index = 0;
    if (parseShardPath(path, prefix, index)) {
        const std::uint32_t count = shardSetCount(prefix);
        for (std::uint32_t i = 0; i < count; i++)
            files.push_back(shardPath(prefix, i));
    }
    return files;
}

/** Shard sets are written by `split` only; saveTrace[Stream]
 * refuse `.tcs` paths, so reject them upfront with a message that
 * says what to use instead. */
bool
isShardOutput(const std::string &path)
{
    if (!isShardPath(path))
        return false;
    std::fprintf(stderr,
                 "error: cannot write a single .tcs file; use "
                 "'trace_tool split' to produce a shard set\n");
    return true;
}

/** Die if a drained source ended on a mid-stream error. */
void
checkDrained(const EventSource &source, const std::string &path)
{
    (void)path;
    if (source.failed())
        std::exit(reportSourceError(source));
}

void
saveOrDie(const Trace &trace, const std::string &path)
{
    if (!saveTrace(trace, path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.c_str());
        std::exit(kExitIo);
    }
    std::printf("wrote %s (%s events)\n", path.c_str(),
                humanCount(trace.size()).c_str());
}

void
printStats(const TraceStats &s)
{
    std::printf("events    : %s\n", humanCount(s.events).c_str());
    std::printf("threads   : %d\n", s.threads);
    std::printf("variables : %s\n", humanCount(s.variables).c_str());
    std::printf("locks     : %s\n", humanCount(s.locks).c_str());
    std::printf("reads     : %s   writes: %s\n",
                humanCount(s.reads).c_str(),
                humanCount(s.writes).c_str());
    std::printf("acquires  : %s   releases: %s\n",
                humanCount(s.acquires).c_str(),
                humanCount(s.releases).c_str());
    std::printf("forks     : %s   joins: %s\n",
                humanCount(s.forks).c_str(),
                humanCount(s.joins).c_str());
    if (s.tcreates + s.tjoins + s.tretires > 0) {
        std::printf("tcreates  : %s   tjoins: %s   tretires: %s\n",
                    humanCount(s.tcreates).c_str(),
                    humanCount(s.tjoins).c_str(),
                    humanCount(s.tretires).c_str());
    }
    std::printf("sync %%    : %.2f\n", s.syncPercent());
    std::printf("r/w %%     : %.2f\n", s.rwPercent());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(
        "trace toolbox: stats | validate | convert | split | "
        "slice | project | prefix | compact | generate | pool");
    args.addInt("shards", static_cast<std::int64_t>(
                              kDefaultShardCount),
                "shard count (split)");
    args.addString("vars", "", "comma-separated variable ids (slice)");
    args.addString("threads-list", "",
                   "comma-separated thread ids (project)");
    args.addInt("events", 1000000, "event count (prefix/generate)");
    args.addInt("threads", 16, "threads (generate)");
    args.addInt("locks", 16, "locks (generate)");
    args.addInt("gen-vars", 4096, "variables (generate)");
    args.addDouble("sync-ratio", 0.1, "sync share (generate)");
    args.addInt("seed", 1, "seed (generate/pool)");
    args.addInt("pool-size", 8, "max live tasks (pool)");
    args.addInt("tasks", 1000, "logical threads created (pool)");
    args.addInt("task-events", 8, "body events per task (pool)");
    if (!args.parse(argc, argv))
        return kExitUsage;

    // Deterministic fault injection (the crash/kill sweeps drive
    // split through TC_FAILPOINTS / TC_FAULT_SEED).
    std::string failpoint_error;
    if (!FailpointRegistry::instance().armFromEnv(
            &failpoint_error))
        return reportError(failpoint_error, 0, kExitUsage);

    const auto &pos = args.positional();
    if (pos.empty()) {
        args.printHelp();
        return 1;
    }
    const std::string &cmd = pos[0];

    if (cmd == "stats" && pos.size() == 2) {
        // Streaming: O(distinct ids) memory regardless of file
        // size.
        const auto source = openOrDie(pos[1]);
        const TraceStats s = computeStats(*source);
        checkDrained(*source, pos[1]);
        printStats(s);
        return 0;
    }
    if (cmd == "validate" && pos.size() == 2) {
        const Trace t = loadOrDie(pos[1]);
        const ValidationResult v = t.validate();
        if (v.ok) {
            std::printf("OK: %s events, well-formed\n",
                        humanCount(t.size()).c_str());
            return 0;
        }
        std::printf("INVALID at event %zu: %s\n", v.eventIndex,
                    v.message.c_str());
        return kExitFinding;
    }
    if (cmd == "convert" && pos.size() == 3) {
        // Streaming: events flow reader → writer one window at a
        // time. In-place conversion would truncate a file the
        // reader is still consuming — the named input or, when it
        // is a shard member, any file of its set; compare inodes,
        // not path spellings.
        if (aliasesAny(pos[2], inputFilesOf(pos[1]))) {
            std::fprintf(stderr, "error: convert output would "
                                 "overwrite its input\n");
            return 1;
        }
        if (isShardOutput(pos[2]))
            return 1;
        const auto source = openOrDie(pos[1]);
        // Probe writability first (append mode, no truncation) so
        // the failure cleanup below never deletes a pre-existing
        // file we were unable to open in the first place.
        if (!std::ofstream(pos[2], std::ios::app)) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         pos[2].c_str());
            return kExitIo;
        }
        if (!saveTraceStream(*source, pos[2])) {
            // Never leave a half-written file that would later
            // parse as a valid (possibly empty) trace.
            std::remove(pos[2].c_str());
            checkDrained(*source, pos[1]);
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         pos[2].c_str());
            return kExitIo;
        }
        std::printf("wrote %s\n", pos[2].c_str());
        return 0;
    }
    if (cmd == "split" && pos.size() == 3) {
        // Streaming: route events into per-thread shard files with
        // global sequence numbers (trace/shard.hh); memory stays
        // O(window) however large the input is. The merge reader
        // holds K windows, sized for capture-like K, so cap the
        // split width accordingly.
        const std::int64_t shards_raw = args.getInt("shards");
        if (shards_raw < 1 || shards_raw > 256) {
            std::fprintf(stderr,
                         "error: --shards must be in 1..256\n");
            return 1;
        }
        const auto shards = static_cast<std::uint32_t>(shards_raw);
        // ShardWriter truncates its output files; writing over the
        // input — the named file or, when it is a shard set, ANY
        // member of that set (symlinks included) — would destroy
        // what the reader is still consuming. Same hazard convert
        // guards against, compared by inode.
        const std::vector<std::string> inputs =
            inputFilesOf(pos[1]);
        for (std::uint32_t i = 0; i < shards; i++) {
            if (aliasesAny(shardPath(pos[2], i), inputs)) {
                std::fprintf(stderr,
                             "error: split output would "
                             "overwrite its input\n");
                return 1;
            }
        }
        const auto source = openOrDie(pos[1]);
        std::string error;
        const std::uint64_t written =
            splitTraceStream(*source, pos[2], shards, &error);
        if (written == kUnknownEventCount) {
            checkDrained(*source, pos[1]);
            return reportError(error, 0,
                               exitCodeForMessage(error));
        }
        std::printf("wrote %s.{0..%u}.tcs (%s events)\n",
                    pos[2].c_str(), shards - 1,
                    humanCount(written).c_str());
        return 0;
    }
    if (cmd == "slice" && pos.size() == 3) {
        const Trace t = loadOrDie(pos[1]);
        std::vector<VarId> vars;
        for (const auto id : parseIdList(args.getString("vars")))
            vars.push_back(static_cast<VarId>(id));
        if (vars.empty()) {
            std::fprintf(stderr, "error: slice needs --vars=...\n");
            return 1;
        }
        saveOrDie(sliceByVars(t, vars), pos[2]);
        return 0;
    }
    if (cmd == "project" && pos.size() == 3) {
        const Trace t = loadOrDie(pos[1]);
        std::vector<Tid> tids;
        for (const auto id :
             parseIdList(args.getString("threads-list")))
            tids.push_back(static_cast<Tid>(id));
        if (tids.empty()) {
            std::fprintf(stderr,
                         "error: project needs --threads-list=...\n");
            return 1;
        }
        saveOrDie(projectThreads(t, tids), pos[2]);
        return 0;
    }
    if (cmd == "prefix" && pos.size() == 3) {
        const Trace t = loadOrDie(pos[1]);
        saveOrDie(prefix(t, static_cast<std::size_t>(
                                args.getInt("events"))),
                  pos[2]);
        return 0;
    }
    if (cmd == "compact" && pos.size() == 3) {
        const Trace t = loadOrDie(pos[1]);
        IdRemap remap;
        const Trace d = renumberDense(t, &remap);
        std::printf("compacted: %zu threads, %zu locks, %zu vars in "
                    "use\n", remap.threads.size(),
                    remap.locks.size(), remap.vars.size());
        saveOrDie(d, pos[2]);
        return 0;
    }
    if (cmd == "generate" && pos.size() == 2) {
        RandomTraceParams params;
        const std::string bad =
            traceParamsFromFlags(args, params, "gen-vars");
        if (!bad.empty())
            return reportError(bad, 0, kExitUsage);
        saveOrDie(generateRandomTrace(params), pos[1]);
        return 0;
    }
    if (cmd == "pool" && pos.size() == 2) {
        PoolWorkloadParams params;
        const std::string bad =
            poolParamsFromFlags(args, params, "gen-vars");
        if (!bad.empty())
            return reportError(bad, 0, kExitUsage);
        saveOrDie(generatePoolWorkload(params), pos[1]);
        return 0;
    }

    std::fprintf(stderr, "error: unknown command or wrong arity "
                 "(see --help)\n");
    return 1;
}
