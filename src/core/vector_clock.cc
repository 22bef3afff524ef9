#include "core/vector_clock.hh"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "support/assert.hh"

namespace tc {

// Growing a vector of clocks must move them: a copy would make a
// sharing clock take records of its own.
static_assert(std::is_nothrow_move_constructible_v<VectorClock>);
// Header bytes cost time (tree_clock.cc).
static_assert(sizeof(VectorClock) <= 56);

namespace {

/** dst ← dst ⊔ src over @p n entries; returns the entries changed. */
std::uint64_t
joinEntries(Clk *dst, const Clk *src, std::size_t n)
{
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < n; i++) {
        if (src[i] > dst[i]) {
            dst[i] = src[i];
            changed++;
        }
    }
    return changed;
}

} // namespace

VectorClock::VectorClock(Tid owner, std::size_t capacity)
    : owner_(owner)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    times_.grow(std::max<std::size_t>(capacity,
                                      static_cast<std::size_t>(owner) + 1),
                nullptr);
}

bool
VectorClock::empty() const
{
    if (owner_ != kNoTid)
        return false;
    for (std::size_t i = 0; i < size(); i++)
        if (get(static_cast<Tid>(i)) != 0)
            return false;
    return true;
}

void
VectorClock::increment(Clk delta)
{
    TC_CHECK(owner_ != kNoTid,
             "increment() requires an owning thread clock");
    // Only the owner's entry moves, so a frozen version stays valid.
    WorkCounters *const counters = this->counters();
    times_.take(counters)[static_cast<std::size_t>(owner_)] += delta;
    if (counters) {
        counters->increments++;
        counters->vtWork++;
        counters->dsWork++;
    }
}

void
VectorClock::join(const VectorClock &other)
{
    WorkCounters *const counters = this->counters();
    const std::size_t n = other.size();
    times_.grow(n, counters);
    Clk *mine = times_.mut().data();
    std::uint64_t changed = 0;
    if (other.times_.sharing()) {
        // The frozen version, except the source owner's entry, which
        // is the operand's own.
        const Clk *src = other.times_.data();
        const Tid owner = other.times_.sharedOwner();
        const auto o = static_cast<std::size_t>(owner);
        if (owner != kNoTid && o < n) {
            changed = joinEntries(mine, src, o) +
                      joinEntries(mine + o + 1, src + o + 1, n - o - 1);
            const Clk clk = other.times_.sharedTime(owner);
            if (clk > mine[o]) {
                mine[o] = clk;
                changed++;
            }
        } else {
            changed = joinEntries(mine, src, n);
        }
    } else {
        const std::vector<Clk> &src = other.times_.own();
        changed = joinEntries(mine, src.data(), src.size());
    }
    if (changed != 0)
        times_.forget();
    if (counters) {
        counters->joins++;
        counters->vtWork += changed;
        // The flat join examines every entry of the operand
        // unconditionally; this is the Θ(k) the paper measures as
        // VCWork.
        counters->dsWork += n;
    }
}

std::uint64_t
VectorClock::assignFrom(const VectorClock &other)
{
    WorkCounters *const counters = this->counters();
    std::vector<Clk> &mine = times_.change(counters);
    times_.grow(other.size(), counters);
    std::uint64_t changed = 0;
    if (other.times_.sharing()) [[unlikely]] {
        for (std::size_t i = 0; i < mine.size(); i++) {
            const Clk next = other.get(static_cast<Tid>(i));
            changed += mine[i] != next;
            mine[i] = next;
        }
    } else {
        const std::vector<Clk> &src = other.times_.own();
        for (std::size_t i = 0; i < mine.size(); i++) {
            const Clk next = i < src.size() ? src[i] : 0;
            if (mine[i] != next) {
                mine[i] = next;
                changed++;
            }
        }
    }
    return changed;
}

void
VectorClock::copyFrom(const VectorClock &other)
{
    const std::uint64_t changed = assignFrom(other);
    if (WorkCounters *const counters = this->counters()) {
        counters->copies++;
        counters->vtWork += changed;
        counters->dsWork += size();
    }
}

void
VectorClock::copyCheckMonotone(const VectorClock &other)
{
    WorkCounters *const counters = this->counters();
    if (arena_ && other.arena_ == arena_ &&
        other.size() >= kShareMinEntries &&
        times_.canShare(other.times_)) {
        times_.share(other.times_, other.owner_, arena_->vectorFrozen,
                     counters);
        if (counters) {
            counters->copies++;
            counters->dsWork++;
        }
        return;
    }
    // A copy, like a share, moves no vector time of its own: the
    // entries are the source's. It still runs the counting copy of
    // copyFrom, so tree clocks are measured against the vector
    // clock's usual copy.
    assignFrom(other);
    if (counters) {
        counters->copies++;
        counters->dsWork += size();
    }
}

bool
VectorClock::lessThanOrEqual(const VectorClock &other) const
{
    for (std::size_t i = 0; i < size(); i++) {
        const auto t = static_cast<Tid>(i);
        if (get(t) > other.get(t))
            return false;
    }
    return true;
}

std::vector<Clk>
VectorClock::toVector(std::size_t min_threads) const
{
    std::vector<Clk> out = times_.records();
    if (out.size() < min_threads)
        out.resize(min_threads, 0);
    return out;
}

void
VectorClock::serialize(ByteSink &out) const
{
    out.putI32(owner_);
    if (times_.sharing())
        out.putVec(times_.records());
    else
        out.putVec(times_.own());
}

bool
VectorClock::deserialize(ByteSource &in)
{
    Tid owner = kNoTid;
    std::vector<Clk> times;
    if (!in.getI32(owner) || !in.getVec(times))
        return false;
    if (owner < kNoTid)
        return in.fail();
    // An owner must be addressable in its own vector (the owning
    // constructor guarantees this for live clocks) — except the
    // released representation (lifecycle retire): owner retained,
    // no storage. Snapshots taken between a tretire and the end of
    // the stream serialize exactly that state.
    if (owner != kNoTid && !times.empty() &&
        static_cast<std::size_t>(owner) >= times.size())
        return in.fail();
    owner_ = owner;
    times_.assign(std::move(times), counters());
    return true;
}

} // namespace tc
