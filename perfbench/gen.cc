/**
 * @file
 * Writes one benchmark workload's input traces as .tcb files.
 *
 *   perfbench_gen WORKLOAD SEED SCALE OUTDIR
 *
 * WORKLOAD is corpus | ingest | fanout (see README.md for why each
 * exists). SEED derives every trace's generator seed, so the same
 * seed always gives the same files. SCALE multiplies event counts
 * (1 = the measured size; the self-test uses a tiny one). Prints one
 * "name<TAB>path<TAB>events" line per written trace.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gen/corpus.hh"
#include "support/rng.hh"
#include "trace/trace_io.hh"

using namespace tc;

namespace {

/** The corpus entry named @p name (the ingest and fanout traces are
 * longer, reshaped copies of two corpus entries). */
CorpusSpec
corpusEntry(const std::string &name)
{
    for (const CorpusSpec &spec : defaultCorpus()) {
        if (spec.name == name)
            return spec;
    }
    std::fprintf(stderr, "error: no corpus entry '%s'\n", name.c_str());
    std::exit(1);
}

/** Several seeds of one recipe, so a pass sums over a few runs of
 * each analysis instead of resting on one. */
std::vector<CorpusSpec>
variants(const CorpusSpec &base, const std::string &prefix,
         std::uint64_t events)
{
    constexpr int kVariants = 4;
    std::vector<CorpusSpec> specs;
    for (int i = 0; i < kVariants; i++) {
        CorpusSpec spec = base;
        spec.name = prefix + std::to_string(i);
        spec.params.events = events;
        spec.params.seed = base.params.seed + static_cast<std::uint64_t>(i);
        specs.push_back(spec);
    }
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 5) {
        std::fprintf(stderr,
                     "usage: perfbench_gen corpus|ingest|fanout SEED "
                     "SCALE OUTDIR\n");
        return 1;
    }
    const std::string workload = argv[1];
    const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
    const double scale = std::atof(argv[3]);
    const std::string outdir = argv[4];
    if (scale <= 0) {
        std::fprintf(stderr, "error: SCALE must be positive\n");
        return 1;
    }

    std::vector<CorpusSpec> specs;
    double size = scale;
    if (workload == "corpus") {
        // Half the corpus' nominal size keeps one pass of 200 CLI runs
        // near 10 s, so a run fits several passes; every trace but the
        // unit-* ones still analyzes for several milliseconds.
        specs = defaultCorpus();
        size = 0.5 * scale;
    } else if (workload == "ingest") {
        // Long traces, few threads, under 1% sync: analysis at its
        // cheapest, so decode and shard merge are a large share.
        specs = variants(corpusEntry("java-lufact-like"),
                         "ingest-lufact-8-", 1000000);
        for (CorpusSpec &spec : specs)
            spec.params.threads = 8;
    } else if (workload == "fanout") {
        // Many threads, heavy sync: every analysis is expensive and
        // MAZ on tree clocks is the slowest consumer of the fan-out.
        specs = variants(corpusEntry("sync-heavy-64"), "fanout-sync-64-",
                         300000);
    } else {
        std::fprintf(stderr, "error: unknown workload '%s'\n",
                     workload.c_str());
        return 1;
    }

    for (CorpusSpec &spec : specs) {
        // Mix the benchmark seed with the entry's own seed, so every
        // entry keeps a distinct stream under every benchmark seed.
        std::uint64_t state = seed * 0x100000001b3ULL + spec.params.seed;
        spec.params.seed = splitMix64(state);
        const Trace trace = buildCorpusTrace(spec, size);
        const std::string path = outdir + "/" + spec.name + ".tcb";
        if (!saveTrace(trace, path)) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         path.c_str());
            return 1;
        }
        std::printf("%s\t%s\t%zu\n", spec.name.c_str(), path.c_str(),
                    trace.size());
    }
    return 0;
}
