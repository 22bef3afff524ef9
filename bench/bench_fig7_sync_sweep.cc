/**
 * @file
 * Regenerates the paper's Figure 7: the speedup of tree clocks on
 * the full HB+Analysis computation as a function of the percentage
 * of synchronization events in the trace. Expected shape: the
 * speedup trends upward with the sync share (clock operations
 * occupy a growing fraction of the analysis).
 */

#include <iostream>

#include "bench_common.hh"
#include "gen/random_trace.hh"
#include "support/table.hh"

using namespace tc;
using namespace tc::bench;

int
main(int argc, char **argv)
{
    ArgParser args("Figure 7: HB+Analysis speedup vs %sync events");
    addCommonFlags(args);
    args.addInt("threads", 48, "threads per trace");
    args.addInt("events", 1500000, "events per trace (pre-scale)");
    if (!args.parse(argc, argv))
        return 1;
    const double scale = args.getDouble("scale");
    const int reps = static_cast<int>(args.getInt("reps"));

    const double sync_ratios[] = {0.01, 0.02, 0.05, 0.10, 0.15,
                                  0.20, 0.30, 0.40, 0.44};

    std::printf("== Figure 7: HB+Analysis speedup vs "
                "synchronization share ==\n\n");
    Table table({"Sync events (%)", "VC (s)", "TC (s)",
                 "VC / TC"});
    for (const double ratio : sync_ratios) {
        RandomTraceParams params;
        params.threads = static_cast<Tid>(args.getInt("threads"));
        params.locks = params.threads;
        params.vars = 8192;
        params.events = static_cast<std::uint64_t>(
            static_cast<double>(args.getInt("events")) * scale);
        params.syncRatio = ratio;
        // Same communication realism as the corpus (see
        // gen/corpus.cc): per-structure lock affinity and
        // partitioned data.
        params.lockLocality = 0.9;
        params.lockBurst = 0.9;
        params.varLocality = 0.92;
        params.varBurst = 0.85;
        params.hotFraction = 0.02;
        params.seed = 1000 + static_cast<std::uint64_t>(ratio * 100);
        const Trace trace = generateRandomTrace(params);
        const TraceStats stats = computeStats(trace);

        const double vc =
            timePo<VectorClock>(Po::HB, trace, true, reps);
        const double tc =
            timePo<TreeClock>(Po::HB, trace, true, reps);
        table.addRow({fixed(stats.syncPercent(), 1), fixed(vc, 4),
                      fixed(tc, 4), fixed(vc / tc, 2)});
    }
    table.print(std::cout);
    std::printf("\npaper: speedup grows from ~1.0 toward ~2.5 as "
                "sync share approaches 44%%\n");
    return 0;
}
