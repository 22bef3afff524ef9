#include "core/vector_clock.hh"

#include <algorithm>

#include "support/assert.hh"

namespace tc {

VectorClock::VectorClock(Tid owner, std::size_t capacity)
    : owner_(owner)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    ensure(std::max<std::size_t>(capacity,
                                 static_cast<std::size_t>(owner) + 1));
}

void
VectorClock::ensure(std::size_t n)
{
    if (times_.size() < n) {
        times_.resize(n, 0);
        updateAccounting();
    }
}

void
VectorClock::release()
{
    if (counters_)
        counters_->subClockBytes(accounted_);
    accounted_ = 0;
    times_.clear();
    times_.shrink_to_fit();
}

void
VectorClock::increment(Clk delta)
{
    TC_CHECK(owner_ != kNoTid,
             "increment() requires an owning thread clock");
    times_[static_cast<std::size_t>(owner_)] += delta;
    if (counters_) {
        counters_->increments++;
        counters_->vtWork++;
        counters_->dsWork++;
    }
}

void
VectorClock::join(const VectorClock &other)
{
    ensure(other.times_.size());
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < other.times_.size(); i++) {
        if (other.times_[i] > times_[i]) {
            times_[i] = other.times_[i];
            changed++;
        }
    }
    if (counters_) {
        counters_->joins++;
        counters_->vtWork += changed;
        // The flat join examines every entry of the operand
        // unconditionally; this is the Θ(k) the paper measures as
        // VCWork.
        counters_->dsWork += other.times_.size();
    }
}

void
VectorClock::copyFrom(const VectorClock &other)
{
    ensure(other.times_.size());
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < times_.size(); i++) {
        const Clk next =
            i < other.times_.size() ? other.times_[i] : 0;
        if (times_[i] != next) {
            times_[i] = next;
            changed++;
        }
    }
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += times_.size();
    }
}

bool
VectorClock::lessThanOrEqual(const VectorClock &other) const
{
    for (std::size_t i = 0; i < times_.size(); i++)
        if (times_[i] > other.get(static_cast<Tid>(i)))
            return false;
    return true;
}

std::vector<Clk>
VectorClock::toVector(std::size_t min_threads) const
{
    std::vector<Clk> out(std::max(times_.size(), min_threads), 0);
    std::copy(times_.begin(), times_.end(), out.begin());
    return out;
}

void
VectorClock::serialize(ByteSink &out) const
{
    out.putI32(owner_);
    out.putVec(times_);
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
    times_ = std::move(times);
    updateAccounting();
    return true;
}

} // namespace tc
