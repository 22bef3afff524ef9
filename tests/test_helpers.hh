/**
 * @file
 * Shared helpers for the engine test suites: timestamp collection,
 * parameterized random-trace cases, engine aliases, and the
 * stream-equality assertion the EventSource suites build on.
 */

#ifndef TC_TESTS_TEST_HELPERS_HH
#define TC_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "gen/random_trace.hh"
#include "trace/event_source.hh"

namespace tc {
namespace test {

/**
 * Iteration multiplier for the randomized suites, from the
 * TC_TEST_DEPTH environment variable (default 1, clamped to
 * 1..1000). Per-push CI runs at 1; the nightly-depth CI job runs
 * the same suites at 10× so rare interleavings and deep random
 * walks get real coverage without slowing every push.
 */
inline int
depthScale()
{
    const char *raw = std::getenv("TC_TEST_DEPTH");
    if (raw == nullptr || *raw == '\0')
        return 1;
    const long depth = std::strtol(raw, nullptr, 10);
    if (depth < 1)
        return 1;
    return depth > 1000 ? 1000 : static_cast<int>(depth);
}

/** Drain @p source and require exactly @p expected's events, in
 * order, ending cleanly (no failed() state). */
inline void
expectSameEvents(const Trace &expected, EventSource &source,
                 const std::string &label = "")
{
    Event e;
    std::size_t i = 0;
    while (source.next(e)) {
        ASSERT_LT(i, expected.size()) << label;
        ASSERT_EQ(e, expected[i]) << label << " event " << i;
        i++;
    }
    EXPECT_FALSE(source.failed())
        << label << ": " << source.error();
    EXPECT_EQ(i, expected.size()) << label;
}

/** Run an engine, collecting per event the vector time of the
 * performing thread right after the event. */
template <template <typename> class Engine, typename ClockT>
std::vector<std::vector<Clk>>
collectTimestamps(const Trace &trace, EngineConfig cfg = {})
{
    std::vector<std::vector<Clk>> out;
    out.reserve(trace.size());
    Engine<ClockT> engine(cfg);
    engine.begin(TraceSource(trace).info());
    for (std::size_t i = 0; i < trace.size(); i++) {
        engine.feed(trace[i]);
        out.push_back(engine.viewOf(trace[i].tid));
    }
    return out;
}

/** Run an engine and return its result. */
template <template <typename> class Engine, typename ClockT>
EngineResult
runEngine(const Trace &trace, EngineConfig cfg = {})
{
    Engine<ClockT> engine(cfg);
    return engine.run(trace);
}

/** A parameterized random-trace configuration for sweep tests. */
struct SweepCase
{
    std::string label;
    RandomTraceParams params;

    friend std::ostream &
    operator<<(std::ostream &os, const SweepCase &c)
    {
        return os << c.label;
    }
};

/**
 * The standard sweep: small enough for the O(n²) oracle, spanning
 * thread counts, sync density, lock counts, skew and fork/join.
 */
inline std::vector<SweepCase>
standardSweep()
{
    auto make = [](std::string label, Tid threads, LockId locks,
                   VarId vars, std::uint64_t events, double sync,
                   double read_frac, bool fork_join,
                   std::uint64_t seed) {
        SweepCase c;
        c.label = std::move(label);
        c.params.threads = threads;
        c.params.locks = locks;
        c.params.vars = vars;
        c.params.events = events;
        c.params.syncRatio = sync;
        c.params.readFraction = read_frac;
        c.params.hotVars = std::max<VarId>(1, vars / 4);
        c.params.hotFraction = 0.5;
        c.params.seed = seed;
        c.params.forkJoin = fork_join;
        return c;
    };
    return {
        make("tiny_2t", 2, 1, 4, 200, 0.3, 0.5, false, 101),
        make("small_3t", 3, 2, 8, 600, 0.2, 0.6, false, 102),
        make("locky_4t", 4, 4, 8, 1200, 0.5, 0.5, false, 103),
        make("mixed_6t", 6, 3, 16, 1500, 0.15, 0.7, false, 104),
        make("forkjoin_5t", 5, 2, 12, 1200, 0.2, 0.6, true, 105),
        make("wide_12t", 12, 6, 24, 2000, 0.25, 0.7, false, 106),
        make("readheavy_8t", 8, 4, 10, 1800, 0.1, 0.95, false, 107),
        make("writeheavy_8t", 8, 4, 10, 1800, 0.1, 0.1, false, 108),
        make("syncfree_4t", 4, 1, 8, 800, 0.0, 0.5, false, 109),
        make("allsync_6t", 6, 4, 4, 1500, 1.0, 0.5, false, 110),
        make("hotspot_10t", 10, 5, 64, 2000, 0.2, 0.6, false, 111),
        make("forkjoin_16t", 16, 8, 32, 2500, 0.3, 0.7, true, 112),
    };
}

} // namespace test
} // namespace tc

#endif // TC_TESTS_TEST_HELPERS_HH
