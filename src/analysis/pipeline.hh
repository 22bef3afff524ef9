/**
 * @file
 * One-pass multi-analysis fan-out.
 *
 * Running HB, SHB and MAZ as three separate drains of the same file
 * pays the I/O and decode three times — about half of a streamed
 * run when the analysis is cheap and the input is a shard set (the
 * layered benchmark's ingest workload). AnalysisPipeline drains
 * one EventSource exactly once and feeds every event to N consumers
 * — each an AnalysisDriver of some (partial order × clock) choice —
 * producing the same per-driver results as N separate runs would
 * (the pipeline test suite pins this).
 *
 * AnalysisConsumer is the type-erased face of the driver: begin()
 * maps to AnalysisDriver::begin(), consume() to feed(), result() to
 * result(). DriverConsumer adapts any driver instantiation; custom
 * consumers (statistics, timestamp dumpers, ...) just implement the
 * interface.
 *
 * Two execution modes, one semantics: run(source) interleaves the
 * consumers on the calling thread, run(source, ParallelOptions)
 * spreads them over a worker pool that borrows shared zero-copy
 * EventWindows through a WindowBus (see window_bus.hh) — each
 * consumer still sees the full stream in order with its own clock
 * bank and scratch arena, so reports, race summaries and work
 * counters are identical between the two modes and to N dedicated
 * runs (the pipeline test suite pins all three ways).
 */

#ifndef TC_ANALYSIS_PIPELINE_HH
#define TC_ANALYSIS_PIPELINE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis_driver.hh"
#include "analysis/window_bus.hh"

namespace tc {

/** One consumer of the shared event stream. */
class AnalysisConsumer
{
  public:
    virtual ~AnalysisConsumer() = default;

    /** Label for reports ("hb/tc", "maz/vc", ...). */
    virtual const std::string &name() const = 0;

    /** A new stream starts; pre-size for its declared id spaces. */
    virtual void begin(const SourceInfo &si) = 0;

    /** One event, in stream order. */
    virtual void consume(const Event &e) = 0;

    /** Results accumulated so far (valid mid-stream and after). */
    virtual EngineResult result() const = 0;

    /** @name Checkpoint save/restore (trace/snapshot.hh)
     *
     * Every consumer checkpoints, so a snapshot never drops one's
     * state. restoreState() is called after begin() and must leave
     * the consumer exactly as it stood when saveState() ran.
     * @{ */
    virtual void saveState(ByteSink &out) const = 0;
    virtual bool restoreState(ByteSource &in) = 0;
    /** @} */
};

/**
 * AnalysisConsumer over an AnalysisDriver instantiation. Owns its
 * WorkCounters when the given config has no sink, so per-driver
 * work is always separated even when many consumers share one
 * stream. Cache-line aligned: the fan-out allocates its consumers
 * back to back and feeds them from different workers, so the
 * counters and driver state each one writes per event must not
 * share a line with a neighbour's.
 */
template <ClockLike ClockT, template <typename> class PolicyT>
class alignas(64) DriverConsumer final : public AnalysisConsumer
{
  public:
    explicit DriverConsumer(std::string name,
                            EngineConfig cfg = {})
        : name_(std::move(name)), driver_(patchConfig(
              std::move(cfg), &work_, ownsCounters_))
    {}

    const std::string &name() const override { return name_; }

    void
    begin(const SourceInfo &si) override
    {
        // The driver treats counters as a caller-owned sink and
        // never clears them; ours must cover one run, not the
        // consumer's lifetime. Caller-provided sinks keep the
        // driver's accumulate-across-runs semantics.
        if (ownsCounters_)
            work_ = WorkCounters{};
        driver_.begin(si);
    }

    void consume(const Event &e) override { driver_.feed(e); }
    EngineResult result() const override
    {
        return driver_.result();
    }

    void
    saveState(ByteSink &out) const override
    {
        driver_.saveState(out);
    }
    bool
    restoreState(ByteSource &in) override
    {
        return driver_.restoreState(in);
    }

    AnalysisDriver<ClockT, PolicyT> &driver() { return driver_; }

  private:
    static EngineConfig
    patchConfig(EngineConfig cfg, WorkCounters *own, bool &owns)
    {
        owns = cfg.counters == nullptr;
        if (owns)
            cfg.counters = own;
        return cfg;
    }

    std::string name_;
    WorkCounters work_;
    bool ownsCounters_ = false;
    AnalysisDriver<ClockT, PolicyT> driver_;
};

/** Per-consumer outcome of one pipeline pass. */
struct AnalysisReport
{
    std::string name;
    EngineResult result;
};

/** Knobs of the parallel fan-out (AnalysisPipeline::run overload). */
struct ParallelOptions
{
    /** Worker threads; 0 = one per consumer. Always capped at the
     * consumer count. One worker still runs on the bus: it runs
     * every consumer while the calling thread decodes (and merges)
     * the next windows (identical results either way). */
    std::size_t workers = 0;
    /** Events per published window (the producer's readWindow
     * request). */
    std::size_t window = kDefaultSourceWindow;
    /** Windows in flight behind the ring (producer lead over the
     * slowest consumer). */
    std::size_t depth = kDefaultWindowRingDepth;
};

/**
 * The fan-out itself: any number of consumers, one stream drain.
 * Reusable — each run() begins every consumer anew.
 */
class AnalysisPipeline
{
  public:
    /** Returns the pipeline for chained add().add().run(...). */
    AnalysisPipeline &
    add(std::unique_ptr<AnalysisConsumer> consumer)
    {
        consumers_.push_back(std::move(consumer));
        return *this;
    }

    std::size_t size() const { return consumers_.size(); }
    bool empty() const { return consumers_.empty(); }

    /** Consumer @p i in add() order (checkpoint writer/loader). */
    AnalysisConsumer &
    consumer(std::size_t i)
    {
        return *consumers_[i];
    }
    const AnalysisConsumer &
    consumer(std::size_t i) const
    {
        return *consumers_[i];
    }

    /** begin() every consumer for a stream declaring @p si — the
     * first half of run(), split out so checkpoint restore can
     * slot consumer state in between begin and the drain. */
    void
    beginAll(const SourceInfo &si)
    {
        for (auto &c : consumers_)
            c->begin(si);
    }

    /**
     * Drain @p source from its current position through every
     * consumer in one pass on the calling thread. As with
     * AnalysisDriver::run, a source failing mid-stream stops the
     * drain and the reports cover the consumed prefix — check
     * source.failed() afterwards. A consumer throwing propagates
     * out of the drain.
     */
    std::vector<AnalysisReport>
    run(EventSource &source)
    {
        beginAll(source.info());
        return drain(source);
    }

    /** The drain half of run(): no begin, consumers keep whatever
     * state they hold (a restored checkpoint, a previous segment
     * of the same stream). */
    std::vector<AnalysisReport>
    drain(EventSource &source)
    {
        std::vector<Event> storage;
        EventWindow window;
        while (!(window = source.readWindow(
                     storage, kDefaultSourceWindow))
                    .empty()) {
            // Window-major order: each consumer's clock bank stays
            // cache-hot for the whole window instead of being
            // evicted N-1 times per event. Consumers are
            // independent, so each still sees events in stream
            // order — the per-event interleaving is unobservable.
            for (auto &c : consumers_) {
                AnalysisConsumer &consumer = *c;
                for (const Event &e : window)
                    consumer.consume(e);
            }
        }
        return reports();
    }

    /**
     * The same drain spread over a worker pool: the calling thread
     * publishes zero-copy windows into a WindowBus and each worker
     * runs its share of the consumers over every window (consumer
     * i belongs to worker i mod K), so the N-analysis cross product
     * scales across cores while every consumer still observes the
     * exact stream order. Results are identical to the sequential
     * overload at every worker count, 1 included: one worker
     * overlaps the calling thread's decode with the analyses.
     *
     * A consumer throwing on any worker stops the pool and the
     * producer, and the first such exception is rethrown here after
     * every worker has joined (no window or thread outlives the
     * call). Consumers must not share mutable state (a shared
     * EngineConfig::counters sink would race — DriverConsumers own
     * their counters by default).
     */
    std::vector<AnalysisReport> run(EventSource &source,
                                    const ParallelOptions &options);

    /** The drain half of the parallel overload (no begin) —
     * checkpointed runs drain bounded segments through this with
     * consumer state carried across segments. */
    std::vector<AnalysisReport>
    drainParallel(EventSource &source,
                  const ParallelOptions &options);

    /** Snapshot every consumer's result, in add() order. */
    std::vector<AnalysisReport>
    reports() const
    {
        std::vector<AnalysisReport> out;
        out.reserve(consumers_.size());
        for (const auto &c : consumers_)
            out.push_back({c->name(), c->result()});
        return out;
    }

  private:
    std::vector<std::unique_ptr<AnalysisConsumer>> consumers_;
};

/**
 * Consumer for the (partial order, clock) pair named by strings
 * (po: "hb" | "shb" | "maz", clock: "tc" | "vc") — the CLI face of
 * the fan-out. Returns null for unknown names. The consumer is
 * named "<po>/<clock>".
 */
std::unique_ptr<AnalysisConsumer>
makeAnalysisConsumer(const std::string &po,
                     const std::string &clock,
                     const EngineConfig &cfg = {});

} // namespace tc

#endif // TC_ANALYSIS_PIPELINE_HH
