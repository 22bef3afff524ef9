/**
 * @file
 * The lane scheduler under the parallel analysis fan-out.
 *
 * The sequential AnalysisPipeline interleaves N analyses on one
 * thread; parallelizing it only needs one new primitive, because
 * each AnalysisDriver already owns all its mutable state (clock
 * bank, scratch arena, race summary). WindowBus is that primitive.
 * The producer (the calling thread) publishes EventWindows —
 * immutable spans of decoded events, usually borrowed zero-copy
 * from the source via EventSource::readWindow — into a bounded
 * ring. Each consumer is a *lane*: a cursor into the ring that
 * runs on at most one thread at a time, always on its next window
 * in stream order. A thread looking for work takes the ready lane
 * furthest behind (on a tie, the lane it ran last), so no thread
 * waits while some lane has a backlog. A slot is recycled — its
 * storage handed back to the producer as decode capacity — once
 * every lane has passed it, so the ring bounds how far the reader
 * runs ahead and no event is ever copied per consumer.
 *
 * While the ring is full and no worker is idle, the producer runs
 * a ready lane instead of sleeping. A single lane never runs on
 * the producer, so a one-analysis run keeps its decode overlapped
 * with its analysis.
 *
 * All state sits under one mutex, and a lane's consumer state
 * passes from one thread to the next through it. Error discipline:
 * a lane that throws, on a worker or on the producer, and
 * requestStop() stop the bus. No lane starts another window,
 * publish() refuses new ones and every blocked party wakes, so a
 * fault tears the whole pool down without deadlock; error() keeps
 * the first exception for the caller to rethrow.
 */

#ifndef TC_ANALYSIS_WINDOW_BUS_HH
#define TC_ANALYSIS_WINDOW_BUS_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "trace/event_source.hh"

namespace tc {

/** Windows the producer may keep in flight ahead of the slowest
 * lane. 4 ≈ double buffering per side of the hand-off. */
inline constexpr std::size_t kDefaultWindowRingDepth = 4;

class WindowBus
{
  public:
    /** Runs lane @p lane over its next window. */
    using LaneFn =
        std::function<void(std::size_t lane, const EventWindow &)>;

    /** A ring of @p depth slots read by @p lanes lanes, each
     * window of each lane run once through @p run. */
    WindowBus(std::size_t lanes, std::size_t depth, LaneFn run);

    WindowBus(const WindowBus &) = delete;
    WindowBus &operator=(const WindowBus &) = delete;

    /**
     * Producer (one thread): publish @p window, keeping @p storage
     * alive in its slot until every lane has run it (@p window may
     * point into @p storage or into source-stable memory). On
     * return @p storage holds the recycled slot's old buffer, for
     * the next EventSource::readWindow to decode into. While the
     * ring is full this runs ready lanes or blocks, and a lane's
     * exception propagates. Returns false — and discards the
     * window — once the bus is stopped.
     */
    bool publish(std::vector<Event> &storage, EventWindow window);

    /** No more windows will be published (clean end of stream);
     * the workers drain what is in flight, then return. */
    void finish();

    /** Worker body: run lanes until end of stream or stop. A lane
     * that throws stops the bus with its exception. */
    void work();

    /** Abort: keep @p error if it is the first, wake everyone,
     * fail further publishes and start no further lane window.
     * Any thread may call it. */
    void requestStop(std::exception_ptr error = nullptr);

    /** The first error passed to requestStop(), or null. */
    std::exception_ptr error();

  private:
    static constexpr std::size_t kNoLane = ~std::size_t{0};

    struct Slot
    {
        std::vector<Event> storage;
        EventWindow window;
    };

    struct Lane
    {
        /** Sequence number of the next window to run. */
        std::uint64_t cursor = 0;
        bool running = false;
    };

    bool
    ready(const Lane &lane) const
    {
        return !stopped_ && !lane.running &&
               lane.cursor < published_;
    }

    /** Mark and return the ready lane furthest behind, preferring
     * @p last on a tie; kNoLane when none is ready. */
    std::size_t claim(std::size_t last);

    /** Run the claimed @p lane over its next window with @p lock
     * released, then hand the lane back. */
    void runLane(std::size_t lane,
                 std::unique_lock<std::mutex> &lock);

    /** If some lane is ready, wake an idle worker for it, or the
     * producer when no worker is idle. */
    void wake();

    /** Sequence number of the oldest window some lane still
     * needs. */
    std::uint64_t oldest() const;

    const LaneFn run_;
    std::mutex mutex_;
    std::condition_variable work_;  ///< idle workers wait here
    std::condition_variable space_; ///< the producer waits here
    std::vector<Slot> slots_;
    std::vector<Lane> lanes_;
    std::uint64_t published_ = 0;
    std::size_t idle_ = 0;
    std::size_t producerLane_ = kNoLane;
    bool done_ = false;
    bool stopped_ = false;
    std::exception_ptr error_;
};

} // namespace tc

#endif // TC_ANALYSIS_WINDOW_BUS_HH
