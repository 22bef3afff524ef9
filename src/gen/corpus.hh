/**
 * @file
 * The benchmark corpus: a deterministic set of synthetic traces
 * whose per-trace parameters (threads, locks, variables,
 * synchronization density, skew) span the same ranges as the
 * paper's Table 3 suite of 153 logged traces (docs/ARCHITECTURE.md,
 * Corpus, gives the substitution rationale). Used by the Table
 * 1/2/3 and Figure 6/8/9 harnesses and by the integration tests (at
 * a small scale).
 */

#ifndef TC_GEN_CORPUS_HH
#define TC_GEN_CORPUS_HH

#include <string>
#include <vector>

#include "gen/random_trace.hh"
#include "gen/synthetic.hh"
#include "trace/trace.hh"

namespace tc {

/** One corpus entry: a named, seeded trace recipe. */
struct CorpusSpec
{
    std::string name;
    /** Family tag: "random" uses @c params; scenario families use
     * @c scenario with @c params.threads/events/seed. */
    bool isScenario = false;
    Scenario scenario = Scenario::SingleLock;
    RandomTraceParams params;
};

/**
 * The default corpus (25 entries). Event counts are the @c events
 * fields scaled by @p scale; scale 1.0 keeps the full harness run in
 * the minutes range on a laptop.
 */
std::vector<CorpusSpec> defaultCorpus();

/** Materialize one entry at the given scale factor. */
Trace buildCorpusTrace(const CorpusSpec &spec, double scale = 1.0);

/**
 * Scale factor from the TC_BENCH_SCALE environment variable
 * (default 1.0, clamped to [0.001, 1000]).
 */
double benchScaleFromEnv();

} // namespace tc

#endif // TC_GEN_CORPUS_HH
