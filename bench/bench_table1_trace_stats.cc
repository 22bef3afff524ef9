/**
 * @file
 * Regenerates the paper's Table 1 (aggregate trace statistics:
 * min/max/mean of threads, locks, variables, events, %sync, %r/w)
 * and Table 3 (the per-trace inventory) for this repository's
 * corpus (docs/ARCHITECTURE.md, Corpus, documents the substitution).
 */

#include <iostream>

#include "bench_common.hh"
#include "support/table.hh"

using namespace tc;
using namespace tc::bench;

int
main(int argc, char **argv)
{
    ArgParser args("Table 1 + Table 3: corpus trace statistics");
    addCommonFlags(args);
    if (!args.parse(argc, argv))
        return 1;
    const double scale = args.getDouble("scale");

    std::vector<TraceStats> all_stats;
    Table per_trace({"Benchmark", "N", "T", "M", "L", "Sync%",
                     "R/W%"});

    auto corpus = defaultCorpus();
    const auto limit = static_cast<std::size_t>(
        args.getInt("max-traces"));
    if (corpus.size() > limit)
        corpus.resize(limit);

    for (const CorpusSpec &spec : corpus) {
        const Trace trace = buildCorpusTrace(spec, scale);
        const TraceStats s = computeStats(trace);
        all_stats.push_back(s);
        per_trace.addRow({spec.name, humanCount(s.events),
                          strFormat("%d", s.threads),
                          humanCount(s.variables),
                          humanCount(s.locks),
                          fixed(s.syncPercent(), 1),
                          fixed(s.rwPercent(), 1)});
    }

    const CorpusStats agg = aggregateStats(all_stats);
    std::printf("== Table 1: aggregate trace statistics "
                "(%zu traces, scale %.3g) ==\n\n",
                agg.traces, scale);
    Table t1({"Metric", "Min", "Max", "Mean"});
    auto row = [&](const char *name,
                   const CorpusStats::MinMaxMean &m, bool pct) {
        auto fmt = [&](double v) {
            return pct ? fixed(v, 1)
                       : humanCount(static_cast<std::uint64_t>(v));
        };
        t1.addRow({name, fmt(m.min), fmt(m.max), fmt(m.mean)});
    };
    row("Threads", agg.threads, false);
    row("Locks", agg.locks, false);
    row("Variables", agg.variables, false);
    row("Events", agg.events, false);
    row("Sync. Events (%)", agg.syncPct, true);
    row("R/W Events (%)", agg.rwPct, true);
    t1.print(std::cout);

    std::printf("\n== Table 3: per-trace inventory ==\n\n");
    per_trace.print(std::cout);
    std::printf("\npaper reference: 153 traces, threads 3-222, "
                "events 51-2.1B, sync 0-44.4%%\n");
    return 0;
}
