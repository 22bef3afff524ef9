#include "gen/random_trace.hh"

#include <algorithm>
#include <vector>

#include "support/assert.hh"
#include "support/rng.hh"

namespace tc {

Trace
generateRandomTrace(const RandomTraceParams &params)
{
    TC_CHECK(params.threads >= 1, "need at least one thread");
    TC_CHECK(params.vars >= 1 ||
                 (params.syncRatio >= 1.0 && params.locks >= 1),
             "need variables unless the trace is all-sync");
    TC_CHECK(!params.forkJoin || params.threads >= 2,
             "fork/join shape needs a worker thread");

    Rng rng(params.seed);
    Trace trace(params.threads, params.locks, params.vars);
    trace.reserve(params.events + 4 *
                  static_cast<std::uint64_t>(params.threads));

    // Thread-activity weights (paper-style skew: top 20% are 5x).
    std::vector<double> weights(
        static_cast<std::size_t>(params.threads), 1.0);
    if (params.threadSkew > 0) {
        const Tid hot = std::max<Tid>(1, params.threads / 5);
        for (Tid t = 0; t < hot; t++) {
            weights[static_cast<std::size_t>(t)] =
                1.0 + 4.0 * params.threadSkew;
        }
    }
    WeightedSampler thread_pick(weights);

    // Lock state: holder per lock, held stack per thread (LIFO).
    std::vector<Tid> holder(static_cast<std::size_t>(params.locks),
                            kNoTid);
    std::vector<std::vector<LockId>> held(
        static_cast<std::size_t>(params.threads));

    const VarId hot_vars = std::min(params.hotVars, params.vars);

    // Neighbourhood windows for the locality knobs. Lock windows
    // span twice the fair share so adjacent threads overlap and
    // information percolates; variable windows are disjoint
    // partitions (non-hot data is thread-private in real programs —
    // cross-thread sharing flows through the hot set and locks).
    const auto k64 = static_cast<std::uint64_t>(params.threads);
    auto windowed = [&](Tid t, std::uint64_t space, bool overlap) {
        const std::uint64_t base = (static_cast<std::uint64_t>(t) *
                                    space) / k64;
        const std::uint64_t share =
            std::max<std::uint64_t>(1, space / k64);
        const std::uint64_t width =
            overlap ? std::max<std::uint64_t>(2, 2 * share) : share;
        return (base + rng.below(width)) % space;
    };
    // Thread-lock affinity state: the lock each thread used last.
    std::vector<LockId> last_lock(
        static_cast<std::size_t>(params.threads), kNoTid);
    auto pick_lock = [&](Tid t) {
        const auto space =
            static_cast<std::uint64_t>(params.locks);
        const LockId previous =
            last_lock[static_cast<std::size_t>(t)];
        if (previous != kNoTid && params.lockBurst > 0 &&
            rng.chance(params.lockBurst)) {
            return previous;
        }
        if (params.lockLocality > 0 &&
            rng.chance(params.lockLocality)) {
            return static_cast<LockId>(windowed(t, space, true));
        }
        return static_cast<LockId>(rng.below(space));
    };
    std::vector<VarId> last_var(
        static_cast<std::size_t>(params.threads), kNoTid);
    auto pick_var = [&](Tid t) {
        const VarId previous = last_var[static_cast<std::size_t>(t)];
        if (previous != kNoTid && params.varBurst > 0 &&
            rng.chance(params.varBurst)) {
            return previous;
        }
        const auto space = static_cast<std::uint64_t>(params.vars);
        VarId x;
        if (hot_vars > 0 && rng.chance(params.hotFraction)) {
            x = static_cast<VarId>(
                rng.below(static_cast<std::uint64_t>(hot_vars)));
        } else if (params.varLocality > 0 &&
                   rng.chance(params.varLocality)) {
            x = static_cast<VarId>(windowed(t, space, false));
        } else {
            x = static_cast<VarId>(rng.below(space));
        }
        last_var[static_cast<std::size_t>(t)] = x;
        return x;
    };

    // Fork prologue: thread 0 spawns every worker before it acts.
    std::uint64_t epilogue = 0;
    if (params.forkJoin) {
        for (Tid t = 1; t < params.threads; t++)
            trace.fork(0, t);
        epilogue += static_cast<std::uint64_t>(params.threads) - 1;
    }

    auto emit_access = [&](Tid t) {
        const VarId x = pick_var(t);
        if (rng.chance(params.readFraction))
            trace.read(t, x);
        else
            trace.write(t, x);
    };

    // Main body. Most critical sections are immediate acq/rel pairs
    // so that lock contention cannot starve the synchronization
    // budget; a 20% tail is held open across other events for
    // nesting richness. A sync decision emits ~2 events, so the
    // decision probability is adjusted to hit the requested share
    // of sync *events*.
    const double pair_p =
        params.syncRatio >= 1.0
            ? 1.0
            : params.syncRatio / (2.0 - params.syncRatio);
    std::uint64_t total_held = 0;
    while (trace.size() + epilogue + total_held + 2 < params.events) {
        const Tid t = static_cast<Tid>(thread_pick.draw(rng));
        auto &stack = held[static_cast<std::size_t>(t)];

        if (params.locks > 0 && rng.chance(pair_p)) {
            // Occasionally close an open critical section first.
            if (!stack.empty() && rng.chance(0.3)) {
                const LockId l = stack.back();
                stack.pop_back();
                holder[static_cast<std::size_t>(l)] = kNoTid;
                total_held--;
                trace.release(t, l);
                continue;
            }
            // Try a few locks (locality-weighted) for a free one.
            bool acquired = false;
            for (int attempt = 0; attempt < 4 && !acquired;
                 attempt++) {
                const LockId l = pick_lock(t);
                if (holder[static_cast<std::size_t>(l)] == kNoTid) {
                    last_lock[static_cast<std::size_t>(t)] = l;
                    trace.acquire(t, l);
                    // Hold a section open only when other locks
                    // remain for the other threads; with a single
                    // lock an open section starves all sync.
                    if (params.locks > 1 && rng.chance(0.2)) {
                        holder[static_cast<std::size_t>(l)] = t;
                        stack.push_back(l);
                        total_held++;
                    } else {
                        trace.release(t, l);
                    }
                    acquired = true;
                }
            }
            if (acquired)
                continue;
            if (!stack.empty()) {
                const LockId l = stack.back();
                stack.pop_back();
                holder[static_cast<std::size_t>(l)] = kNoTid;
                total_held--;
                trace.release(t, l);
                continue;
            }
            // All locks busy elsewhere; fall through to an access.
        }
        if (params.vars > 0)
            emit_access(t);
    }

    // Epilogue: drain held locks (LIFO per thread), then joins.
    for (Tid t = 0; t < params.threads; t++) {
        auto &stack = held[static_cast<std::size_t>(t)];
        while (!stack.empty()) {
            const LockId l = stack.back();
            stack.pop_back();
            holder[static_cast<std::size_t>(l)] = kNoTid;
            trace.release(t, l);
        }
    }
    if (params.forkJoin) {
        for (Tid t = 1; t < params.threads; t++)
            trace.join(0, t);
    }
    return trace;
}

} // namespace tc
