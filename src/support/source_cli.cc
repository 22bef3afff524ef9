#include "support/source_cli.hh"

#include "gen/generator_source.hh"
#include "trace/prefetch_source.hh"

namespace tc {

void
addTraceSourceFlags(ArgParser &args)
{
    args.addString("trace", "",
                   "trace file to analyze (.tct/.tcb, or any "
                   ".tcs member of a sharded capture)");
    args.addBool("prefetch", false,
                 "decode --trace on a background reader thread "
                 "(double-buffered windows)");
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
        "fan-out worker threads (bare --parallel = one per "
        "analysis; K caps the pool; 0 = sequential)");
}

std::size_t
parallelWorkersFromFlags(const ArgParser &args)
{
    const std::int64_t raw = args.getInt("parallel");
    if (raw < 0)
        return kParallelAuto;
    return static_cast<std::size_t>(raw);
}

RandomTraceParams
traceParamsFromFlags(const ArgParser &args)
{
    RandomTraceParams params;
    params.threads = static_cast<Tid>(args.getInt("threads"));
    params.locks = static_cast<LockId>(args.getInt("locks"));
    params.vars = static_cast<VarId>(args.getInt("vars"));
    params.events =
        static_cast<std::uint64_t>(args.getInt("events"));
    params.syncRatio = args.getDouble("sync-ratio");
    params.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    return params;
}

std::unique_ptr<EventSource>
makeEventSource(const ArgParser &args)
{
    if (!args.getString("trace").empty()) {
        auto source = openTraceFile(args.getString("trace"));
        // Prefetch pays off where there is decode + I/O to hide
        // (for shard sets it also moves the merge off the analysis
        // thread); generated sources below have neither.
        if (args.getBool("prefetch") && !source->failed())
            source = makePrefetchSource(std::move(source));
        return source;
    }
    if (args.getBool("generate"))
        return makeRandomTraceSource(traceParamsFromFlags(args));
    return nullptr;
}

} // namespace tc
