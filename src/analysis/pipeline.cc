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

    WindowBus bus(workers, options.depth);
    const std::size_t window_events =
        options.window == 0 ? 1 : options.window;

    // Workers: each owns the consumers congruent to its index, so
    // a consumer's driver state is only ever touched by one thread
    // (begin() above and result() below are ordered by thread
    // create/join). The first exception wins; any exception stops
    // the whole pool through the bus.
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; w++) {
        pool.emplace_back([this, &bus, &errors, w, workers] {
            try {
                while (const EventWindow *window =
                           bus.acquire(w)) {
                    for (std::size_t i = w;
                         i < consumers_.size(); i += workers) {
                        AnalysisConsumer &consumer = *consumers_[i];
                        for (const Event &e : *window)
                            consumer.consume(e);
                    }
                    bus.release(w);
                }
            } catch (...) {
                errors[w] = std::current_exception();
                bus.requestStop();
            }
        });
    }

    // Producer: the calling thread decodes ahead of the pool,
    // recycling released window storage, until end of stream,
    // source failure (reports then cover the consumed prefix, as
    // in the sequential drain) or a worker-requested stop. A
    // throwing source (or an allocation failure in readWindow)
    // must tear the pool down exactly like a throwing consumer —
    // letting it unwind past joinable threads would terminate.
    std::exception_ptr producerError;
    try {
        for (;;) {
            std::vector<Event> storage = bus.acquireStorage();
            const EventWindow window =
                source.readWindow(storage, window_events);
            if (window.empty())
                break;
            if (!bus.publish(std::move(storage), window))
                break;
        }
    } catch (...) {
        producerError = std::current_exception();
        bus.requestStop();
    }
    bus.finish();
    for (std::thread &worker : pool)
        worker.join();
    if (producerError)
        std::rethrow_exception(producerError);
    for (std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
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
