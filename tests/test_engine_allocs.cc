/**
 * @file
 * Heap allocations of the clocks and the engines, counted by the
 * global operator new of bench/alloc_hook.cc (this suite and
 * bench_micro_clock are the only binaries that link it). For a
 * fixed input the counts are deterministic, so every bound is
 * exact; none is committed — each assertion compares one run with
 * another:
 *
 *  - a warmed loop of clock operations allocates nothing;
 *  - an engine run allocates per clock, not per event: doubling the
 *    trace leaves the count unchanged, batch and streamed;
 *  - a tree clock is one allocation, as a vector clock is: per
 *    partial order, TC's count is at most 1.25 × VC's;
 *  - a per-variable clock that shares allocates nothing: a thousand
 *    of them sharing one thread clock allocate what one does.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_hook.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using bench::heapAllocCount;

constexpr Tid kThreads = 8;

/**
 * One round of the engines' clock operations per thread: acquire
 * (join a lock clock), release (monotoneCopy into it) and a write's
 * last-write copy (copyCheckMonotone). Threads alternate between
 * two locks, so the last-write copy takes both its monotone and its
 * deep-copy path.
 */
template <typename ClockT>
void
syncRounds(std::vector<ClockT> &threads, std::vector<ClockT> &locks,
           ClockT &last_write, int rounds)
{
    for (int r = 0; r < rounds; r++) {
        for (std::size_t t = 0; t < threads.size(); t++) {
            ClockT &ct = threads[t];
            ClockT &lock = locks[(t + static_cast<std::size_t>(r)) %
                                 locks.size()];
            ct.increment(1);
            ct.join(lock);
            lock.monotoneCopy(ct);
            last_write.copyCheckMonotone(ct);
        }
    }
}

template <typename ClockT>
std::uint64_t
warmedLoopAllocs()
{
    std::vector<ClockT> threads;
    for (Tid t = 0; t < kThreads; t++)
        threads.emplace_back(t, static_cast<std::size_t>(kThreads));
    std::vector<ClockT> locks(2);
    ClockT last_write;
    syncRounds(threads, locks, last_write, 16); // warm-up
    const std::uint64_t before = heapAllocCount();
    syncRounds(threads, locks, last_write, 16);
    return heapAllocCount() - before;
}

TEST(EngineAllocs, WarmedClockOperationsAllocateNothing)
{
    EXPECT_EQ(warmedLoopAllocs<TreeClock>(), 0u);
    EXPECT_EQ(warmedLoopAllocs<VectorClock>(), 0u);
}

/** A trace over a small id space: every clock the engines keep
 * (threads, locks, per-variable clocks) exists well before the
 * trace ends. */
Trace
smallIdTrace(std::uint64_t events)
{
    RandomTraceParams params;
    params.threads = kThreads;
    params.locks = 8;
    params.vars = 64;
    params.events = events;
    params.seed = 14;
    return generateRandomTrace(params);
}

/** Heap allocations over one engine's lifetime: construction, one
 * batch run(Trace) or streamed run(TraceSource), destruction. */
template <template <typename> class Engine, typename ClockT>
std::uint64_t
runAllocs(const Trace &trace, bool streamed)
{
    TraceSource source(trace);
    const std::uint64_t before = heapAllocCount();
    {
        Engine<ClockT> engine;
        if (streamed)
            engine.run(source);
        else
            engine.run(trace);
    }
    return heapAllocCount() - before;
}

struct PoRuns
{
    const char *po;
    std::uint64_t (*tc)(const Trace &, bool);
    std::uint64_t (*vc)(const Trace &, bool);
};

const PoRuns kPos[] = {
    {"hb", runAllocs<HbEngine, TreeClock>,
     runAllocs<HbEngine, VectorClock>},
    {"shb", runAllocs<ShbEngine, TreeClock>,
     runAllocs<ShbEngine, VectorClock>},
    {"maz", runAllocs<MazEngine, TreeClock>,
     runAllocs<MazEngine, VectorClock>},
};

TEST(EngineAllocs, RunsAllocateNothingPerEvent)
{
    const Trace half = smallIdTrace(20000);
    const Trace full = smallIdTrace(40000);
    for (const PoRuns &p : kPos) {
        for (const bool streamed : {false, true}) {
            const char *mode = streamed ? "streamed" : "batch";
            EXPECT_EQ(p.tc(half, streamed), p.tc(full, streamed))
                << p.po << "/tc " << mode;
            EXPECT_EQ(p.vc(half, streamed), p.vc(full, streamed))
                << p.po << "/vc " << mode;
        }
    }
}

TEST(EngineAllocs, TreeClockAllocatesLikeVectorClock)
{
    const Trace trace = smallIdTrace(20000);
    for (const PoRuns &p : kPos) {
        for (const bool streamed : {false, true}) {
            const std::uint64_t tc = p.tc(trace, streamed);
            const std::uint64_t vc = p.vc(trace, streamed);
            EXPECT_LE(tc * 4, vc * 5)
                << p.po << (streamed ? " streamed" : " batch")
                << ": TC " << tc << " allocations vs VC " << vc;
        }
    }
}

/** Heap allocations of @p n fresh per-variable clocks, each
 * copying one 128-wide thread clock of their arena with
 * copyCheckMonotone (the clocks are made before counting). */
template <typename ClockT>
std::uint64_t
perVariableCopyAllocs(std::size_t n)
{
    constexpr std::size_t kWide = 128;
    WorkCounters work;
    ScratchArena arena;
    arena.counters = &work;
    ClockT thread(0, kWide);
    thread.setArena(&arena);
    thread.increment(1);
    std::vector<ClockT> vars(n);
    for (ClockT &v : vars)
        v.setArena(&arena);
    const std::uint64_t before = heapAllocCount();
    for (ClockT &v : vars)
        v.copyCheckMonotone(thread);
    return heapAllocCount() - before;
}

TEST(EngineAllocs, SharingClocksAllocateNothingPerClock)
{
    // The first copy freezes the thread clock into the pool; the
    // other 999 share that version and hold no records.
    EXPECT_EQ(perVariableCopyAllocs<TreeClock>(1000),
              perVariableCopyAllocs<TreeClock>(1));
    EXPECT_EQ(perVariableCopyAllocs<VectorClock>(1000),
              perVariableCopyAllocs<VectorClock>(1));
}

} // namespace
} // namespace tc
