/**
 * @file
 * WindowBus unit tests: the lane scheduler under the parallel
 * fan-out. Ordering (every lane sees every window once, in
 * publication order, at any worker count), exclusion (a lane never
 * runs on two threads at once), scheduling (the lane furthest
 * behind goes first; the producer runs lanes while the ring is
 * full, but never a single lane), storage recycling (a slot's
 * buffer comes back through publish once every lane has passed
 * it), bounded lead, and the shutdown paths (clean finish, stop
 * requests reaching blocked and busy parties, lane faults).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/window_bus.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

/** A storage-backed window of @p n events tagged with @p tag (the
 * tag rides in Event::target so lanes can check ordering). */
std::vector<Event>
taggedWindow(std::size_t n, std::uint32_t tag)
{
    std::vector<Event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        events.emplace_back(static_cast<Tid>(i % 4), OpType::Read,
                            tag);
    }
    return events;
}

/** Publish @p windows windows of @p size events tagged 0, 1, ...,
 * decoding each into the storage the previous publish handed
 * back. */
void
publishTagged(WindowBus &bus, std::uint32_t windows, std::size_t size)
{
    std::vector<Event> storage;
    for (std::uint32_t tag = 0; tag < windows; tag++) {
        storage.assign(size, Event(Tid{0}, OpType::Read, tag));
        ASSERT_TRUE(bus.publish(
            storage, EventWindow{storage.data(), storage.size()}))
            << "window " << tag;
    }
}

/** @p n threads running WindowBus::work(); join() finishes the
 * stream and joins them. */
class Workers
{
  public:
    Workers(WindowBus &bus, std::size_t n) : bus_(bus)
    {
        for (std::size_t i = 0; i < n; i++)
            threads_.emplace_back([this] { bus_.work(); });
    }
    ~Workers() { join(); }
    Workers(const Workers &) = delete;
    Workers &operator=(const Workers &) = delete;

    void
    join()
    {
        bus_.finish();
        for (std::thread &t : threads_) {
            if (t.joinable())
                t.join();
        }
    }

  private:
    WindowBus &bus_;
    std::vector<std::thread> threads_;
};

/** Per-lane checks, run inside the lanes: each window arrives once,
 * in publication order, and a lane never runs on two threads at
 * once. The counters are plain on purpose — the bus's mutex must
 * order them between threads (TSan runs this suite). */
class LaneLog
{
  public:
    explicit LaneLog(std::size_t lanes)
        : next_(lanes, 0), events_(lanes, 0), inUse_(lanes)
    {}

    void
    run(std::size_t lane, const EventWindow &window)
    {
        EXPECT_FALSE(inUse_[lane].exchange(true))
            << "lane " << lane << " runs on two threads";
        for (const Event &e : window)
            EXPECT_EQ(e.target, next_[lane]) << "lane " << lane;
        std::this_thread::yield();
        next_[lane]++;
        events_[lane] += window.size;
        inUse_[lane].store(false);
    }

    WindowBus::LaneFn
    fn()
    {
        return [this](std::size_t lane, const EventWindow &window) {
            run(lane, window);
        };
    }

    /** Every lane saw @p windows windows of @p size events. */
    void
    expectAll(std::uint32_t windows, std::size_t size,
              const std::string &label) const
    {
        for (std::size_t lane = 0; lane < next_.size(); lane++) {
            EXPECT_EQ(next_[lane], windows)
                << label << " lane " << lane;
            EXPECT_EQ(events_[lane], windows * size)
                << label << " lane " << lane;
        }
    }

  private:
    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> events_;
    std::vector<std::atomic<bool>> inUse_;
};

TEST(WindowBus, EveryLaneSeesEveryWindowOnceInOrder)
{
    // One-event windows make scheduling the bottleneck: at every
    // worker count and ring depth, each lane must still see every
    // window once, in order, on one thread at a time.
    constexpr std::size_t kLanes = 6;
    const std::uint32_t windows = static_cast<std::uint32_t>(
        400 * test::depthScale());
    for (std::size_t workers = 1; workers <= 6; workers++) {
        for (const std::size_t depth : {1u, 2u, 4u}) {
            const std::string label =
                "workers=" + std::to_string(workers) +
                " depth=" + std::to_string(depth);
            LaneLog log(kLanes);
            WindowBus bus(kLanes, depth, log.fn());
            {
                Workers pool(bus, workers);
                publishTagged(bus, windows, 1);
            }
            log.expectAll(windows, 1, label);
            EXPECT_EQ(bus.error(), nullptr) << label;
        }
    }
}

TEST(WindowBus, TakesTheLaneFurthestBehindFirst)
{
    // No workers: while the ring is full the producer runs every
    // lane window itself, so the schedule is deterministic.
    std::vector<std::pair<std::size_t, std::uint32_t>> order;
    WindowBus bus(3, 2, [&order](std::size_t lane,
                                 const EventWindow &window) {
        order.emplace_back(lane, window[0].target);
    });
    publishTagged(bus, 5, 1);
    bus.finish();
    const std::vector<std::pair<std::size_t, std::uint32_t>>
        expected = {
            // All lanes tied at window 0: lowest index first.
            {0, 0}, {1, 0}, {2, 0},
            // Tied at window 1: the lane run last goes first, then
            // the lanes it left behind.
            {2, 1}, {0, 1}, {1, 1},
            {1, 2}, {0, 2}, {2, 2}};
    EXPECT_EQ(order, expected);
}

TEST(WindowBus, CallingThreadRunsLanesWhileTheRingIsFull)
{
    // Six lanes, one worker, depth 1: the ring fills at once, so the
    // producer runs lanes beside the worker instead of sleeping.
    constexpr std::size_t kLanes = 6;
    const std::thread::id caller = std::this_thread::get_id();
    LaneLog log(kLanes);
    std::atomic<std::uint64_t> on_caller{0};
    WindowBus bus(kLanes, 1,
                  [&](std::size_t lane, const EventWindow &window) {
                      if (std::this_thread::get_id() == caller)
                          on_caller++;
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(50));
                      log.run(lane, window);
                  });
    {
        Workers pool(bus, 1);
        publishTagged(bus, 200, 4);
    }
    log.expectAll(200, 4, "six lanes");
    EXPECT_GT(on_caller.load(), 0u);
}

TEST(WindowBus, ASingleLaneNeverRunsOnTheCallingThread)
{
    // One lane stays on its worker, so a one-analysis run overlaps
    // the producer's decode with the analysis.
    const std::thread::id caller = std::this_thread::get_id();
    LaneLog log(1);
    std::atomic<std::uint64_t> on_caller{0};
    WindowBus bus(1, 1,
                  [&](std::size_t lane, const EventWindow &window) {
                      if (std::this_thread::get_id() == caller)
                          on_caller++;
                      std::this_thread::sleep_for(
                          std::chrono::microseconds(20));
                      log.run(lane, window);
                  });
    {
        Workers pool(bus, 1);
        publishTagged(bus, 100, 4);
    }
    log.expectAll(100, 4, "one lane");
    EXPECT_EQ(on_caller.load(), 0u);
}

TEST(WindowBus, RecyclesSlotStorageToTheProducer)
{
    // Depth 2: publishing window n + 2 hands back window n's buffer
    // (same heap block, capacity kept) once its lane ran it.
    WindowBus bus(1, 2, [](std::size_t, const EventWindow &) {});
    Workers pool(bus, 1);
    std::vector<Event> storage = taggedWindow(16, 0);
    const Event *const first = storage.data();
    ASSERT_TRUE(bus.publish(storage, EventWindow{first, 16}));
    EXPECT_TRUE(storage.empty()); // the slot held no buffer yet
    for (std::uint32_t tag = 1; tag <= 2; tag++) {
        storage = taggedWindow(16, tag);
        ASSERT_TRUE(bus.publish(
            storage, EventWindow{storage.data(), storage.size()}));
    }
    EXPECT_EQ(storage.data(), first);
    EXPECT_GE(storage.capacity(), 16u);
    pool.join();
}

TEST(WindowBus, ViewWindowsNeedNoBackingStorage)
{
    // Spans into source-stable memory (the TraceSource path):
    // publish with empty storage, the span must still round-trip.
    const std::vector<Event> stable = taggedWindow(12, 7);
    std::atomic<int> runs{0};
    WindowBus bus(2, 4,
                  [&](std::size_t, const EventWindow &window) {
                      EXPECT_EQ(window.data, stable.data());
                      EXPECT_EQ(window.size, stable.size());
                      runs++;
                  });
    {
        Workers pool(bus, 2);
        std::vector<Event> none;
        for (int i = 0; i < 8; i++) {
            ASSERT_TRUE(bus.publish(
                none, EventWindow{stable.data(), stable.size()}));
            EXPECT_TRUE(none.empty());
        }
    }
    EXPECT_EQ(runs.load(), 16);
}

TEST(WindowBus, SlowestLaneBoundsTheProducer)
{
    // Depth 2, one fast and one slow lane: the producer may lead
    // the slow lane by at most the ring depth whenever it runs.
    constexpr std::size_t kDepth = 2;
    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint32_t> slow_seen{0};
    WindowBus bus(2, kDepth,
                  [&](std::size_t lane, const EventWindow &window) {
                      if (lane == 0)
                          return;
                      EXPECT_LE(published.load(),
                                window[0].target + kDepth);
                      std::this_thread::yield();
                      slow_seen++;
                  });
    {
        Workers pool(bus, 2);
        std::vector<Event> storage;
        for (std::uint32_t tag = 0; tag < 50; tag++) {
            storage.assign(3, Event(Tid{0}, OpType::Read, tag));
            ASSERT_TRUE(bus.publish(
                storage,
                EventWindow{storage.data(), storage.size()}));
            published++;
        }
    }
    EXPECT_EQ(slow_seen.load(), 50u);
}

TEST(WindowBus, RequestStopWakesABlockedWorker)
{
    WindowBus bus(2, 2, [](std::size_t, const EventWindow &) {
        ADD_FAILURE() << "nothing was published";
    });
    // Nothing is published: the worker blocks until the stop.
    std::thread worker([&bus] { bus.work(); });
    bus.requestStop();
    worker.join();
    std::vector<Event> storage = taggedWindow(4, 0);
    EXPECT_FALSE(bus.publish(
        storage, EventWindow{storage.data(), storage.size()}));
    EXPECT_EQ(bus.error(), nullptr);
}

TEST(WindowBus, RequestStopWakesAProducerBlockedOnAFullRing)
{
    // One lane, which never runs on the producer, and no worker:
    // with depth 1 the second publish blocks until the stop fails
    // it.
    WindowBus bus(1, 1, [](std::size_t, const EventWindow &) {
        ADD_FAILURE() << "no thread runs the lane";
    });
    std::vector<Event> storage = taggedWindow(4, 0);
    ASSERT_TRUE(bus.publish(
        storage, EventWindow{storage.data(), storage.size()}));
    std::thread stopper([&bus] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        bus.requestStop();
    });
    storage = taggedWindow(4, 1);
    EXPECT_FALSE(bus.publish(
        storage, EventWindow{storage.data(), storage.size()}));
    stopper.join();
}

TEST(WindowBus, RequestStopReachesAProducerInTheMiddleOfALane)
{
    // Two lanes, no worker, depth 1: the second publish runs lane
    // 0 on the calling thread, and a stop arrives from another
    // thread while it does. The lane finishes; nothing else runs
    // and the publish fails.
    std::vector<std::size_t> ran;
    WindowBus *target = nullptr;
    WindowBus bus(2, 1, [&](std::size_t lane, const EventWindow &) {
        ran.push_back(lane);
        std::thread([target] { target->requestStop(); }).join();
    });
    target = &bus;
    std::vector<Event> storage = taggedWindow(2, 0);
    ASSERT_TRUE(bus.publish(
        storage, EventWindow{storage.data(), storage.size()}));
    storage = taggedWindow(2, 1);
    EXPECT_FALSE(bus.publish(
        storage, EventWindow{storage.data(), storage.size()}));
    EXPECT_EQ(ran, std::vector<std::size_t>{0});
}

TEST(WindowBus, LaneFaultsStopTheBusAndTheFirstIsKept)
{
    // On a worker: the lane's exception stops the bus, so publish
    // fails, and error() keeps it over later stop requests.
    {
        WindowBus bus(1, 1, [](std::size_t, const EventWindow &w) {
            if (w[0].target == 3)
                throw std::runtime_error("worker lane fault");
        });
        Workers pool(bus, 1);
        std::vector<Event> storage;
        bool refused = false;
        for (std::uint32_t tag = 0; tag < 1000 && !refused; tag++) {
            storage.assign(1, Event(Tid{0}, OpType::Read, tag));
            refused = !bus.publish(
                storage, EventWindow{storage.data(), storage.size()});
        }
        EXPECT_TRUE(refused);
        pool.join();
        bus.requestStop(std::make_exception_ptr(
            std::logic_error("a later error")));
        ASSERT_NE(bus.error(), nullptr);
        EXPECT_THROW(std::rethrow_exception(bus.error()),
                     std::runtime_error);
    }
    // On the producer: the lane it runs throws out of publish.
    {
        WindowBus bus(2, 1, [](std::size_t, const EventWindow &) {
            throw std::runtime_error("producer lane fault");
        });
        std::vector<Event> storage = taggedWindow(2, 0);
        ASSERT_TRUE(bus.publish(
            storage, EventWindow{storage.data(), storage.size()}));
        storage = taggedWindow(2, 1);
        EXPECT_THROW(
            bus.publish(storage,
                        EventWindow{storage.data(), storage.size()}),
            std::runtime_error);
    }
}

} // namespace
} // namespace tc
