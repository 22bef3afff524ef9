/**
 * @file
 * Shared CLI plumbing for the tools that analyze or generate an
 * event stream: one set of input flags (--trace / --generate and
 * the generator knobs), the fan-out's --parallel flag, and the one
 * check of the generator flags that both CLIs run before they
 * generate, so a value the generators would abort on is a usage
 * error instead.
 */

#ifndef TC_SUPPORT_SOURCE_CLI_HH
#define TC_SUPPORT_SOURCE_CLI_HH

#include <string>

#include "gen/pool_workload.hh"
#include "gen/random_trace.hh"
#include "support/cli.hh"

namespace tc {

/** Register --trace, --generate and the generator parameter flags
 * shared by the trace-consuming tools. */
void addTraceSourceFlags(ArgParser &args);

/**
 * Read the flat random generator's flags (--threads, --locks,
 * @p vars_flag, --events, --sync-ratio, --seed) into @p params.
 * Returns "" when generateRandomTrace accepts them, otherwise the
 * usage error naming the first flag it would reject: a negative
 * count, --threads below 1, or no variables in a trace that is not
 * all sync. @p vars_flag is "vars" in race_detector and "gen-vars"
 * in trace_tool.
 */
std::string traceParamsFromFlags(const ArgParser &args,
                                 RandomTraceParams &params,
                                 const std::string &vars_flag = "vars");

/** The same for the task-pool workload (--pool-size, --tasks,
 * --task-events, --locks, @p vars_flag, --sync-ratio, --seed):
 * "" when generatePoolWorkload accepts them. */
std::string poolParamsFromFlags(const ArgParser &args,
                                PoolWorkloadParams &params,
                                const std::string &vars_flag = "vars");

/** Sentinel: --parallel given bare — one worker per consumer. */
inline constexpr std::size_t kParallelAuto =
    ~static_cast<std::size_t>(0);

/** Register --parallel[=K] for tools that run an AnalysisPipeline
 * fan-out (bare = one worker per analysis, K = worker cap, 0 =
 * sequential; rejected negative/oversized values are clamped by
 * parallelWorkersFromFlags). */
void addParallelFlag(ArgParser &args);

/** The fan-out request the flags describe: 0 = run sequentially
 * (the default), kParallelAuto = one worker per consumer,
 * otherwise the worker-thread cap. Every negative raw value maps
 * to kParallelAuto (-1 is the bare-flag sentinel); tools that
 * want to reject other negatives as typos should check
 * args.getInt("parallel") < -1 before calling (race_detector
 * does). */
std::size_t parallelWorkersFromFlags(const ArgParser &args);

} // namespace tc

#endif // TC_SUPPORT_SOURCE_CLI_HH
