#include "analysis/window_bus.hh"

#include <algorithm>
#include <utility>

#include "support/assert.hh"

namespace tc {

WindowBus::WindowBus(std::size_t lanes, std::size_t depth, LaneFn run)
    : run_(std::move(run)), slots_(depth == 0 ? 1 : depth),
      lanes_(lanes)
{
    TC_CHECK(lanes > 0, "WindowBus needs at least one lane");
}

bool
WindowBus::publish(std::vector<Event> &storage, EventWindow window)
{
    std::unique_lock<std::mutex> lock(mutex_);
    TC_CHECK(!done_, "publish after finish");
    for (;;) {
        if (stopped_)
            return false;
        if (published_ - oldest() < slots_.size())
            break;
        // Ring full: run a lane rather than sleep, unless an idle
        // worker is about to take it or the bus has one lane, which
        // stays off this thread.
        const std::size_t lane = lanes_.size() > 1 && idle_ == 0
                                     ? claim(producerLane_)
                                     : kNoLane;
        if (lane == kNoLane) {
            space_.wait(lock);
            continue;
        }
        producerLane_ = lane;
        runLane(lane, lock);
        wake();
    }
    // Every lane has passed the slot's old window, so its storage
    // goes back to the caller as decode capacity.
    Slot &slot = slots_[published_ % slots_.size()];
    std::swap(slot.storage, storage);
    slot.window = window;
    published_++;
    wake();
    return true;
}

void
WindowBus::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_ = true;
    }
    work_.notify_all();
}

void
WindowBus::work()
{
    try {
        std::unique_lock<std::mutex> lock(mutex_);
        std::size_t last = kNoLane;
        for (;;) {
            const std::size_t lane = claim(last);
            wake();
            if (lane != kNoLane) {
                last = lane;
                runLane(lane, lock);
                continue;
            }
            // At end of stream every lane with windows left is
            // running, and its thread runs the rest.
            if (stopped_ || done_)
                return;
            idle_++;
            work_.wait(lock);
            idle_--;
        }
    } catch (...) {
        requestStop(std::current_exception());
    }
}

void
WindowBus::requestStop(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::move(error);
        stopped_ = true;
    }
    work_.notify_all();
    space_.notify_all();
}

std::exception_ptr
WindowBus::error()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
}

std::size_t
WindowBus::claim(std::size_t last)
{
    std::size_t best = kNoLane;
    for (std::size_t i = 0; i < lanes_.size(); i++) {
        if (!ready(lanes_[i]))
            continue;
        if (best == kNoLane ||
            lanes_[i].cursor < lanes_[best].cursor ||
            (lanes_[i].cursor == lanes_[best].cursor && i == last))
            best = i;
    }
    if (best != kNoLane)
        lanes_[best].running = true;
    return best;
}

void
WindowBus::runLane(std::size_t i, std::unique_lock<std::mutex> &lock)
{
    Lane &lane = lanes_[i];
    const std::uint64_t seq = lane.cursor;
    const EventWindow window = slots_[seq % slots_.size()].window;
    // A throw leaves the lane marked running; the stop that
    // follows ends the bus, so nothing runs it again.
    lock.unlock();
    run_(i, window);
    lock.lock();
    lane.cursor++;
    lane.running = false;
    // The full ring's oldest window is done: the producer may
    // publish into its slot.
    if (seq + slots_.size() == published_ && oldest() > seq)
        space_.notify_one();
}

void
WindowBus::wake()
{
    const bool any = std::any_of(
        lanes_.begin(), lanes_.end(),
        [this](const Lane &lane) { return ready(lane); });
    if (!any)
        return;
    if (idle_ > 0)
        work_.notify_one();
    else
        space_.notify_one();
}

std::uint64_t
WindowBus::oldest() const
{
    std::uint64_t seq = published_;
    for (const Lane &lane : lanes_)
        seq = std::min(seq, lane.cursor);
    return seq;
}

} // namespace tc
