/**
 * @file
 * One rule book for well-formed traces (TraceValidator): on every
 * trace, Trace::validate() and every analysis run agree on whether
 * it is malformed and, when it is, on the first offending event and
 * its message.
 *
 * Seeded random and pool traces get 1–3 synchronization events
 * inserted at random positions (acq / rel / fork / join / tcreate /
 * tjoin / tretire, with targets in range and one past it). For each
 * mutant, validate()'s (index, message) must equal the first
 * TraceInputError of the six (po × clock) drivers fed event by
 * event, of the same six through run(Trace), and of a six-way
 * AnalysisPipeline on two workers. A mutant that is still well
 * formed must throw nowhere. TC_TEST_DEPTH scales the trace count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "gen/pool_workload.hh"
#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::depthScale;

/** What a check concluded: ok, or the first broken rule. */
struct Outcome
{
    bool ok = true;
    std::size_t index = 0;
    std::string message;

    bool operator==(const Outcome &) const = default;

    friend std::ostream &
    operator<<(std::ostream &os, const Outcome &o)
    {
        if (o.ok)
            return os << "ok";
        return os << "event " << o.index << ": " << o.message;
    }
};

template <typename Fn>
Outcome
outcomeOf(Fn &&fn)
{
    try {
        fn();
    } catch (const TraceInputError &err) {
        return {false, err.eventIndex, err.what()};
    }
    return {};
}

/** @p base with 1–3 random sync events inserted. */
Trace
mutate(const Trace &base, Rng &rng)
{
    static constexpr OpType kOps[] = {
        OpType::Acquire,    OpType::Release,
        OpType::Fork,       OpType::Join,
        OpType::ThreadCreate, OpType::ThreadJoin,
        OpType::ThreadRetire,
    };
    const auto inserts = static_cast<std::size_t>(rng.range(1, 3));
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < inserts; i++)
        at.push_back(static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(base.size()))));
    std::sort(at.begin(), at.end());

    Trace out(base.numThreads(), base.numLocks(), base.numVars());
    std::size_t next = 0;
    for (std::size_t i = 0; i <= base.size(); i++) {
        while (next < at.size() && at[next] == i) {
            const OpType op = kOps[rng.below(std::size(kOps))];
            const bool on_lock =
                op == OpType::Acquire || op == OpType::Release;
            // Targets run one past the id space they name.
            const std::int64_t width =
                on_lock ? base.numLocks() : base.numThreads();
            const auto actor = static_cast<Tid>(
                rng.range(0, base.numThreads() - 1));
            const auto target =
                static_cast<std::uint32_t>(rng.range(0, width));
            out.push(Event(actor, op, target));
            next++;
        }
        if (i < base.size())
            out.push(base[i]);
    }
    return out;
}

Trace
randomBase(Rng &rng)
{
    RandomTraceParams p;
    p.threads = static_cast<Tid>(rng.range(2, 6));
    p.locks = static_cast<LockId>(rng.range(1, 3));
    p.vars = static_cast<VarId>(rng.range(2, 8));
    p.events = static_cast<std::uint64_t>(rng.range(20, 300));
    p.syncRatio = 0.1 * static_cast<double>(rng.range(0, 5));
    p.forkJoin = rng.chance(0.5);
    p.seed = rng.next();
    return generateRandomTrace(p);
}

Trace
poolBase(Rng &rng)
{
    PoolWorkloadParams p;
    p.poolSize = static_cast<Tid>(rng.range(1, 3));
    p.tasks = static_cast<std::uint64_t>(rng.range(2, 12));
    p.taskEvents = static_cast<std::uint64_t>(rng.range(2, 6));
    p.locks = static_cast<LockId>(rng.range(1, 3));
    p.vars = static_cast<VarId>(rng.range(2, 8));
    p.seed = rng.next();
    return generatePoolWorkload(p);
}

/** One (po × clock) analysis fed @p t event by event, and run over
 * it as a whole, must both end as @p expected. */
template <template <typename> class Engine, typename ClockT>
void
expectDriversAgree(const Trace &t, const Outcome &expected,
                   const std::string &label)
{
    Engine<ClockT> fed;
    EXPECT_EQ(outcomeOf([&] {
                  for (const Event &e : t)
                      fed.feed(e);
              }),
              expected)
        << label << " fed";
    Engine<ClockT> batch;
    EXPECT_EQ(outcomeOf([&] { batch.run(t); }), expected)
        << label << " run(Trace)";
}

/** Every run mode must reach the verdict validate() reaches on
 * @p t. Returns that verdict. */
Outcome
expectAgreement(const Trace &t, const std::string &label)
{
    const ValidationResult v = t.validate();
    const Outcome expected =
        v.ok ? Outcome{} : Outcome{false, v.eventIndex, v.message};

    expectDriversAgree<HbEngine, TreeClock>(t, expected,
                                            label + " hb/tc");
    expectDriversAgree<HbEngine, VectorClock>(t, expected,
                                              label + " hb/vc");
    expectDriversAgree<ShbEngine, TreeClock>(t, expected,
                                             label + " shb/tc");
    expectDriversAgree<ShbEngine, VectorClock>(t, expected,
                                               label + " shb/vc");
    expectDriversAgree<MazEngine, TreeClock>(t, expected,
                                             label + " maz/tc");
    expectDriversAgree<MazEngine, VectorClock>(t, expected,
                                               label + " maz/vc");

    AnalysisPipeline pipeline;
    for (const char *po : {"hb", "shb", "maz"}) {
        for (const char *clock : {"tc", "vc"})
            pipeline.add(makeAnalysisConsumer(po, clock));
    }
    TraceSource source(t);
    ParallelOptions options;
    options.workers = 2;
    EXPECT_EQ(outcomeOf([&] { pipeline.run(source, options); }),
              expected)
        << label << " six-way pipeline";
    return expected;
}

TEST(TraceRules, EveryRunModeRejectsTheEventValidateRejects)
{
    Rng rng(0x7a11d47e);
    const int traces = 1000 * depthScale();
    int invalid = 0;
    for (int i = 0; i < traces; i++) {
        const bool pool = i % 3 == 2;
        const Trace base = pool ? poolBase(rng) : randomBase(rng);
        const std::string label =
            std::string(pool ? "pool" : "random") + " #" +
            std::to_string(i);
        ASSERT_TRUE(base.validate().ok) << label;
        const Trace mutant = mutate(base, rng);
        if (!expectAgreement(mutant, label).ok)
            invalid++;
        if (HasFailure())
            return;
    }
    // Both verdicts must occur, or the suite checks only one side.
    EXPECT_GT(invalid, 0);
    EXPECT_LT(invalid, traces);
}

TEST(TraceRules, UnmutatedTracesPassEveryRunMode)
{
    Rng rng(0x600d);
    for (int i = 0; i < 10 * depthScale(); i++) {
        const Trace t = i % 2 ? poolBase(rng) : randomBase(rng);
        EXPECT_TRUE(
            expectAgreement(t, "base #" + std::to_string(i)).ok);
    }
}

} // namespace
} // namespace tc
