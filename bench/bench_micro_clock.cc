/**
 * @file
 * google-benchmark micro-benchmarks of the raw clock operations:
 * get/increment (both O(1)), join and copy under controlled
 * knowledge patterns, across thread counts. These isolate the
 * per-operation costs behind the macro results: a vacuous VC join
 * still pays Θ(k); a vacuous TC join pays O(1).
 *
 * Every benchmark reports a heap_allocs counter — allocations (via
 * the alloc_hook.cc global operator new) performed inside the
 * measured loop. The steady-state join/copy benchmarks must report
 * 0: the clock hot paths reuse their scratch and never allocate
 * once warmed.
 *
 * The Share* benchmarks time copyCheckMonotone between clocks of one
 * ScratchArena, where it shares a frozen version of the source
 * instead of copying (tree_clock.hh, "Shared copies"): a share that
 * reuses the source's frozen version, one that makes the source
 * freeze anew after a join, and a join whose operand shares. Tree
 * clocks share at every width, so every TreeClock row times shares;
 * below VectorClock::kShareMinEntries (128 entries) the VectorClock
 * rows time copies.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc_hook.hh"
#include "core/scratch_arena.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"

namespace tc {
namespace {

/**
 * Build a pair (a, b) of clocks of k threads where b carries fresh
 * knowledge about roughly `fresh` threads that a lacks, learned
 * through a chain (a realistic tree shape).
 */
template <typename ClockT>
std::pair<ClockT, ClockT>
makeClockPair(Tid k, Tid fresh)
{
    ClockT a(0, static_cast<std::size_t>(k));
    ClockT b(1, static_cast<std::size_t>(k));
    std::vector<ClockT> others;
    others.reserve(static_cast<std::size_t>(k));
    for (Tid t = 0; t < k; t++) {
        others.emplace_back(t, static_cast<std::size_t>(k));
        others.back().increment(static_cast<Clk>(t) + 1);
    }
    a.increment(5);
    b.increment(5);
    // Both learn everything once (so joins below are warm).
    for (Tid t = 2; t < k; t++) {
        a.join(others[static_cast<std::size_t>(t)]);
        b.join(others[static_cast<std::size_t>(t)]);
    }
    // b additionally learns fresh progress on `fresh` threads.
    for (Tid t = 2; t < 2 + fresh && t < k; t++) {
        others[static_cast<std::size_t>(t)].increment(100);
        b.join(others[static_cast<std::size_t>(t)]);
    }
    return {std::move(a), std::move(b)};
}

/** Allocations inside the measured loop (0 = allocation-free). */
void
setAllocCounter(benchmark::State &state, std::uint64_t before)
{
    state.counters["heap_allocs"] = benchmark::Counter(
        static_cast<double>(bench::heapAllocCount() - before));
}

template <typename ClockT>
void
BM_Get(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, k / 4);
    Tid t = 0;
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.get(t));
        t = (t + 1) % k;
    }
    setAllocCounter(state, allocs);
}

template <typename ClockT>
void
BM_Increment(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    ClockT c(0, static_cast<std::size_t>(k));
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state)
        c.increment(1);
    benchmark::DoNotOptimize(c.get(0));
    setAllocCounter(state, allocs);
}

/** Vacuous join: the operand holds nothing new. VC pays Θ(k), TC
 * pays O(1) — the heart of the paper. */
template <typename ClockT>
void
BM_JoinVacuous(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    a.join(b); // make any residue vacuous
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state)
        a.join(b);
    benchmark::DoNotOptimize(a.get(0));
    setAllocCounter(state, allocs);
}

/**
 * A full release/acquire round trip: thread a publishes through a
 * lock clock, thread b consumes, then roles swap. Each iteration
 * performs 2 increments, 1 monotone copy and 1 join with a small
 * genuine delta — the realistic steady-state op mix of the HB
 * algorithm.
 */
template <typename ClockT>
void
BM_SyncRoundTrip(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT lock;
    // One untimed round trip per role warms the lock clock and the
    // traversal scratch so the measured loop is steady-state.
    for (int warm = 0; warm < 2; warm++) {
        ClockT &src = warm == 0 ? a : b;
        ClockT &dst = warm == 0 ? b : a;
        src.increment(1);
        lock.monotoneCopy(src);
        dst.increment(1);
        dst.join(lock);
    }
    bool a_turn = true;
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        ClockT &src = a_turn ? a : b;
        ClockT &dst = a_turn ? b : a;
        src.increment(1);
        lock.monotoneCopy(src);
        dst.increment(1);
        dst.join(lock);
        a_turn = !a_turn;
    }
    benchmark::DoNotOptimize(a.get(0));
    benchmark::DoNotOptimize(b.get(1));
    setAllocCounter(state, allocs);
}

/** Monotone copy of a fully-known clock (release-path pattern). */
template <typename ClockT>
void
BM_MonotoneCopy(benchmark::State &state)
{
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT lock;
    lock.monotoneCopy(b);
    b.increment(1);
    lock.monotoneCopy(b); // warm the scratch / copy path
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        b.increment(1);
        lock.monotoneCopy(b);
    }
    benchmark::DoNotOptimize(lock.get(1));
    setAllocCounter(state, allocs);
}

/** A per-variable copy while the source changed only in its own
 * entry: the target re-shares the source's frozen copy, O(1). */
template <typename ClockT>
void
BM_ShareReuse(benchmark::State &state)
{
    ScratchArena arena;
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT var;
    for (ClockT *c : {&a, &b, &var})
        c->setArena(&arena);
    var.copyCheckMonotone(b); // warm: b freezes into the pool
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        b.increment(1);
        var.copyCheckMonotone(b);
    }
    benchmark::DoNotOptimize(var.get(1));
    setAllocCounter(state, allocs);
}

/** A per-variable copy after the source learned something (a join
 * with fresh progress, timed too): the source freezes anew — one
 * flat copy of its entries into a free version. */
template <typename ClockT>
void
BM_ShareFreeze(benchmark::State &state)
{
    ScratchArena arena;
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT var;
    for (ClockT *c : {&a, &b, &var})
        c->setArena(&arena);
    for (int warm = 0; warm < 2; warm++) {
        a.increment(1);
        b.join(a);
        var.copyCheckMonotone(b);
    }
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        a.increment(1);
        b.join(a);
        var.copyCheckMonotone(b);
    }
    benchmark::DoNotOptimize(var.get(1));
    setAllocCounter(state, allocs);
}

/** A write then a read of one variable by two threads: the writer's
 * share (reused) and the reader's join of the sharing operand. */
template <typename ClockT>
void
BM_JoinSharedOperand(benchmark::State &state)
{
    ScratchArena arena;
    const Tid k = static_cast<Tid>(state.range(0));
    auto [a, b] = makeClockPair<ClockT>(k, 0);
    ClockT var;
    for (ClockT *c : {&a, &b, &var})
        c->setArena(&arena);
    for (int warm = 0; warm < 2; warm++) {
        b.increment(1);
        var.copyCheckMonotone(b);
        a.increment(1);
        a.join(var);
    }
    const std::uint64_t allocs = bench::heapAllocCount();
    for (auto _ : state) {
        b.increment(1);
        var.copyCheckMonotone(b);
        a.increment(1);
        a.join(var);
    }
    benchmark::DoNotOptimize(a.get(1));
    setAllocCounter(state, allocs);
}

#define TC_BENCH_RANGE RangeMultiplier(4)->Range(8, 2048)

BENCHMARK_TEMPLATE(BM_Get, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Get, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Increment, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_Increment, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinVacuous, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinVacuous, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_SyncRoundTrip, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_SyncRoundTrip, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_MonotoneCopy, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_MonotoneCopy, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_ShareReuse, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_ShareReuse, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_ShareFreeze, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_ShareFreeze, TreeClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinSharedOperand, VectorClock)->TC_BENCH_RANGE;
BENCHMARK_TEMPLATE(BM_JoinSharedOperand, TreeClock)->TC_BENCH_RANGE;

} // namespace
} // namespace tc

BENCHMARK_MAIN();
