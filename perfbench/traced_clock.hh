/**
 * @file
 * TracedClock<C>: a forwarding clock that times every clock operation
 * the analysis driver and its policies issue, by kind.
 *
 * It forwards every member the driver, its policies and DriverConsumer
 * use; the optional ones exist exactly when the wrapped clock has
 * them. So AnalysisDriver<TracedClock<C>, Policy> takes the same code
 * paths as AnalysisDriver<C, Policy> and must produce the same races
 * and work counters. Each timed call costs two steady_clock
 * reads; layers.cc calibrates that cost and subtracts it.
 */

#ifndef PERFBENCH_TRACED_CLOCK_HH
#define PERFBENCH_TRACED_CLOCK_HH

#include <chrono>
#include <concepts>
#include <cstdint>
#include <vector>

#include "core/clock_traits.hh"
#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/thread_id_map.hh"

namespace perfbench {

using tc::Clk;
using tc::Tid;

/** Clock operation kinds, in the order of kOpNames. */
enum Op : int
{
    kJoin,
    kJoinVacuous,
    kMonotoneCopy,
    kCopyCheckMonotone,
    kDeepCopy,
    kIncrement,
    kOpCount,
};

inline constexpr const char *kOpNames[kOpCount] = {
    "join",      "join_vacuous", "monotone_copy", "copy_check_monotone",
    "deep_copy", "increment",
};

/** Calls and raw nanoseconds per operation kind. */
struct OpStats
{
    std::uint64_t calls[kOpCount] = {};
    std::uint64_t ns[kOpCount] = {};
};

/** Where TracedClock records; set around one single-threaded run. */
inline OpStats *g_opStats = nullptr;

using OpClock = std::chrono::steady_clock;

/** Credit the time since @p start to @p op. */
inline void
record(Op op, OpClock::time_point start)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        OpClock::now() - start)
                        .count();
    g_opStats->calls[op]++;
    g_opStats->ns[op] += static_cast<std::uint64_t>(ns);
}

template <tc::ClockLike Inner>
class TracedClock
{
  public:
    static constexpr const char *kName = Inner::kName;

    TracedClock() = default;
    TracedClock(Tid owner, std::size_t capacity)
        : inner_(owner, capacity)
    {}

    const Inner &inner() const { return inner_; }

    Clk get(Tid t) const { return inner_.get(t); }
    Clk localClk() const { return inner_.localClk(); }
    bool empty() const { return inner_.empty(); }

    Clk
    rawGet(Tid t) const
        requires requires(const Inner &c, Tid u) { c.rawGet(u); }
    {
        return inner_.rawGet(t);
    }

    Tid
    rootTid() const
        requires tc::RootedClock<Inner>
    {
        return inner_.rootTid();
    }

    void
    increment(Clk delta)
    {
        const auto start = OpClock::now();
        inner_.increment(delta);
        record(kIncrement, start);
    }

    void
    join(const TracedClock &other)
    {
        const auto start = OpClock::now();
        inner_.join(other.inner_);
        record(kJoin, start);
    }

    void
    joinFull(const TracedClock &other)
        requires requires(Inner &c, const Inner &o) { c.joinFull(o); }
    {
        const auto start = OpClock::now();
        inner_.joinFull(other.inner_);
        record(kJoin, start);
    }

    void
    monotoneCopy(const TracedClock &other)
    {
        const auto start = OpClock::now();
        inner_.monotoneCopy(other.inner_);
        record(kMonotoneCopy, start);
    }

    /** Returns what the wrapped clock returns. A tree clock reports
     * whether the cheap monotone path was taken; when it was not, the
     * call was a linear deep copy and is credited to deep_copy. */
    auto
    copyCheckMonotone(const TracedClock &other)
    {
        const auto start = OpClock::now();
        if constexpr (std::same_as<decltype(inner_.copyCheckMonotone(
                                       other.inner_)),
                                   bool>) {
            const bool monotone = inner_.copyCheckMonotone(other.inner_);
            record(monotone ? kCopyCheckMonotone : kDeepCopy, start);
            return monotone;
        } else {
            inner_.copyCheckMonotone(other.inner_);
            record(kCopyCheckMonotone, start);
        }
    }

    void
    deepCopy(const TracedClock &other)
    {
        const auto start = OpClock::now();
        inner_.deepCopy(other.inner_);
        record(kDeepCopy, start);
    }

    bool
    lessThanOrEqual(const TracedClock &other) const
    {
        return inner_.lessThanOrEqual(other.inner_);
    }

    std::vector<Clk>
    toVector(std::size_t min_threads = 0) const
    {
        return inner_.toVector(min_threads);
    }

    void setCounters(tc::WorkCounters *w) { inner_.setCounters(w); }

    void
    setArena(tc::ScratchArena *arena)
        requires requires(Inner &c, tc::ScratchArena *a) { c.setArena(a); }
    {
        inner_.setArena(arena);
    }

    void
    setIdMap(const tc::ThreadIdMap *map)
        requires requires(Inner &c, const tc::ThreadIdMap *m) {
            c.setIdMap(m);
        }
    {
        inner_.setIdMap(map);
    }

    void
    resetToRoot(Tid owner, Clk start)
        requires requires(Inner &c, Tid t, Clk s) { c.resetToRoot(t, s); }
    {
        inner_.resetToRoot(owner, start);
    }

    void
    release()
        requires requires(Inner &c) { c.release(); }
    {
        inner_.release();
    }

    void serialize(tc::ByteSink &out) const { inner_.serialize(out); }
    bool deserialize(tc::ByteSource &in) { return inner_.deserialize(in); }

  private:
    Inner inner_;
};

/**
 * The engines' O(1) "join would change nothing" probe
 * (tc::joinIsVacuous), found by argument-dependent lookup and
 * preferred as the more specialized overload. It runs the real probe
 * on the wrapped clocks; a vacuous outcome is the whole join attempt
 * and is credited to join_vacuous, otherwise the join call that
 * follows is timed as a join.
 */
template <tc::ClockLike Inner>
bool
joinIsVacuous(const TracedClock<Inner> &dst, const TracedClock<Inner> &src)
{
    const auto start = OpClock::now();
    const bool vacuous = tc::joinIsVacuous(dst.inner(), src.inner());
    if (vacuous)
        record(kJoinVacuous, start);
    return vacuous;
}

} // namespace perfbench

#endif // PERFBENCH_TRACED_CLOCK_HH
