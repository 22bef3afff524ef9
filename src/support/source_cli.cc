#include "support/source_cli.hh"

#include <cstdint>
#include <limits>

#include "support/strings.hh"

namespace tc {

void
addTraceSourceFlags(ArgParser &args)
{
    args.addString("trace", "",
                   "trace file to analyze (.tct/.tcb, or any "
                   ".tcs member of a sharded capture)");
    args.addBool("generate", false, "generate a synthetic trace");
    args.addInt("threads", 16, "threads for --generate");
    args.addInt("locks", 16, "locks for --generate");
    args.addInt("vars", 4096, "variables for --generate");
    args.addInt("events", 500000, "events for --generate");
    args.addDouble("sync-ratio", 0.1, "sync share for --generate");
    args.addInt("seed", 1, "seed for --generate");
}

void
addParallelFlag(ArgParser &args)
{
    args.addOptionalInt(
        "parallel", 0, -1,
        "fan-out worker threads: the calling thread decodes (and "
        "merges) while K workers run the analyses, each taking the "
        "analysis furthest behind, so K=1 already overlaps decode "
        "and merge with the analyses; while its window ring is "
        "full the calling thread runs analyses too (bare "
        "--parallel = one per analysis; 0 = sequential)");
}

std::size_t
parallelWorkersFromFlags(const ArgParser &args)
{
    const std::int64_t raw = args.getInt("parallel");
    if (raw < 0)
        return kParallelAuto;
    return static_cast<std::size_t>(raw);
}

namespace {

/** Largest thread, lock or variable count: ids are 32-bit. */
constexpr std::int64_t kMaxIds =
    std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kMaxEvents =
    std::numeric_limits<std::int64_t>::max();

/** Copy integer flag @p name into @p out when it lies in
 * [@p lo, @p hi]; otherwise record the usage error naming it,
 * unless an earlier flag already failed. */
template <typename T>
void
readCount(const ArgParser &args, const std::string &name,
          std::int64_t lo, std::int64_t hi, T &out,
          std::string &error)
{
    const std::int64_t raw = args.getInt(name);
    if (raw >= lo && raw <= hi) {
        out = static_cast<T>(raw);
    } else if (error.empty()) {
        error = hi == kMaxEvents
                    ? strFormat("--%s=%lld: must be at least %lld",
                                name.c_str(),
                                static_cast<long long>(raw),
                                static_cast<long long>(lo))
                    : strFormat("--%s=%lld: must be in %lld..%lld",
                                name.c_str(),
                                static_cast<long long>(raw),
                                static_cast<long long>(lo),
                                static_cast<long long>(hi));
    }
}

} // namespace

std::string
traceParamsFromFlags(const ArgParser &args, RandomTraceParams &params,
                     const std::string &vars_flag)
{
    std::string error;
    readCount(args, "threads", 1, kMaxIds, params.threads, error);
    readCount(args, "locks", 0, kMaxIds, params.locks, error);
    readCount(args, vars_flag, 0, kMaxIds, params.vars, error);
    readCount(args, "events", 0, kMaxEvents, params.events, error);
    params.syncRatio = args.getDouble("sync-ratio");
    params.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    if (error.empty() && params.vars == 0 &&
        !(params.syncRatio >= 1.0 && params.locks > 0)) {
        // Every event that is not a lock operation is an access.
        error = strFormat("--%s=0 needs --sync-ratio=1 and at "
                          "least one lock",
                          vars_flag.c_str());
    }
    return error;
}

std::string
poolParamsFromFlags(const ArgParser &args, PoolWorkloadParams &params,
                    const std::string &vars_flag)
{
    std::string error;
    readCount(args, "pool-size", 1, kMaxIds, params.poolSize, error);
    // Task i runs as thread i; thread 0 is the pool's manager.
    readCount(args, "tasks", 1, kMaxIds - 1, params.tasks, error);
    readCount(args, "task-events", 0, kMaxEvents, params.taskEvents,
              error);
    readCount(args, "locks", 0, kMaxIds, params.locks, error);
    readCount(args, vars_flag, 1, kMaxIds, params.vars, error);
    params.syncRatio = args.getDouble("sync-ratio");
    params.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    return error;
}

} // namespace tc
