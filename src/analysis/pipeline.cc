#include "analysis/pipeline.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"

namespace tc {

std::vector<AnalysisReport>
AnalysisPipeline::run(EventSource &source,
                      const ParallelOptions &options)
{
    beginAll(source.info());
    return drainParallel(source, options);
}

std::vector<AnalysisReport>
AnalysisPipeline::drainParallel(EventSource &source,
                                const ParallelOptions &options)
{
    const std::size_t workers =
        options.workers == 0
            ? consumers_.size()
            : std::min(options.workers, consumers_.size());
    if (workers == 0)
        return drain(source); // no consumers: nothing to fan out

    // Each consumer is a lane: it runs on one thread at a time, and
    // the bus's mutex hands its driver state from thread to thread
    // (begin() above and result() below are ordered by thread
    // create/join). The first exception, on any thread, stops the
    // pool through the bus.
    WindowBus bus(consumers_.size(), options.depth,
                  [this](std::size_t lane, const EventWindow &window) {
                      AnalysisConsumer &consumer = *consumers_[lane];
                      for (const Event &e : window)
                          consumer.consume(e);
                  });
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; w++)
        pool.emplace_back([&bus] { bus.work(); });

    // Producer: the calling thread decodes ahead of the pool into
    // recycled window storage, and runs lanes while the ring is
    // full, until end of stream, source failure (reports then cover
    // the consumed prefix, as in the sequential drain) or a stop. A
    // throwing source (or an allocation failure in readWindow) must
    // tear the pool down exactly like a throwing consumer — letting
    // it unwind past joinable threads would terminate.
    const std::size_t window_events =
        options.window == 0 ? 1 : options.window;
    try {
        std::vector<Event> storage;
        for (;;) {
            const EventWindow window =
                source.readWindow(storage, window_events);
            if (window.empty() || !bus.publish(storage, window))
                break;
        }
    } catch (...) {
        bus.requestStop(std::current_exception());
    }
    bus.finish();
    for (std::thread &worker : pool)
        worker.join();
    if (const std::exception_ptr error = bus.error())
        std::rethrow_exception(error);
    return reports();
}

namespace {

template <typename ClockT>
std::unique_ptr<AnalysisConsumer>
makeForClock(const std::string &po, std::string name,
             const EngineConfig &cfg)
{
    if (po == "hb") {
        return std::make_unique<DriverConsumer<ClockT, HbPolicy>>(
            std::move(name), cfg);
    }
    if (po == "shb") {
        return std::make_unique<DriverConsumer<ClockT, ShbPolicy>>(
            std::move(name), cfg);
    }
    if (po == "maz") {
        return std::make_unique<DriverConsumer<ClockT, MazPolicy>>(
            std::move(name), cfg);
    }
    return nullptr;
}

} // namespace

std::unique_ptr<AnalysisConsumer>
makeAnalysisConsumer(const std::string &po,
                     const std::string &clock,
                     const EngineConfig &cfg)
{
    std::string name = po + "/" + clock;
    if (clock == "tc")
        return makeForClock<TreeClock>(po, std::move(name), cfg);
    if (clock == "vc")
        return makeForClock<VectorClock>(po, std::move(name), cfg);
    return nullptr;
}

} // namespace tc
