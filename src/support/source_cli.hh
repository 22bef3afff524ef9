/**
 * @file
 * Shared CLI plumbing for tools that analyze an event stream: one
 * set of input flags (--trace / --generate and the generator knobs)
 * and one factory that turns parsed flags into an EventSource, so
 * every tool consumes trace files, synthetic workloads and future
 * source kinds through the same interface.
 */

#ifndef TC_SUPPORT_SOURCE_CLI_HH
#define TC_SUPPORT_SOURCE_CLI_HH

#include <memory>

#include "gen/random_trace.hh"
#include "support/cli.hh"
#include "trace/event_source.hh"

namespace tc {

/** Register --trace, --generate and the generator parameter flags
 * shared by the trace-consuming tools. */
void addTraceSourceFlags(ArgParser &args);

/** The generator parameters the flags describe. */
RandomTraceParams traceParamsFromFlags(const ArgParser &args);

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

/**
 * Build the EventSource the parsed flags describe:
 *  --trace=FILE     a chunked streaming file reader (text/binary/
 *                   shard set by extension; never materializes the
 *                   event vector), wrapped in an asynchronous
 *                   double-buffering decorator under --prefetch;
 *  --generate       a generated synthetic workload.
 * Returns a source in the failed() state on open/parse errors, and
 * null only when neither input flag was given.
 */
std::unique_ptr<EventSource> makeEventSource(const ArgParser &args);

} // namespace tc

#endif // TC_SUPPORT_SOURCE_CLI_HH
