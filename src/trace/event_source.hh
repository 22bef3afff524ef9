/**
 * @file
 * Event streams: the input side of the streaming analysis core.
 *
 * An EventSource produces the events of one execution in trace
 * order, together with the id-space bounds declared by its header.
 * Every source implements one pull, `read(out, max)`, which fills a
 * caller's buffer with the next events; `next()` is one-event
 * `read()`, and `readWindow()` a read into recycled storage that
 * only the in-memory TraceSource answers with a zero-copy view.
 * Every analysis consumes this interface through
 * `AnalysisDriver::run(EventSource&)`, so any engine × any clock can
 * analyze traces far larger than memory: the file-backed sources
 * below never hold more than a fixed window of events.
 *
 * Implementations:
 *  - TraceSource          — view over (or owner of) a materialized
 *                           Trace; the batch path.
 *  - text/binary readers  — chunked streaming readers over the .tct
 *                           and .tcb formats (see trace_io.hh); the
 *                           whole-file loaders in trace_io are thin
 *                           drains of these.
 *  - shard merge          — trace/shard.hh K-way-merges a sharded
 *                           capture (.tcs set) back into the total
 *                           order.
 */

#ifndef TC_TRACE_EVENT_SOURCE_HH
#define TC_TRACE_EVENT_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.hh"

namespace tc {

/** Sentinel for "event count not known before the end of stream". */
inline constexpr std::uint64_t kUnknownEventCount = ~0ull;

/**
 * Coarse classification of a source failure — the error taxonomy
 * both CLIs map to exit codes (support/diagnostics.hh). Io covers
 * environment failures (unopenable path, read errors, injected
 * faults); Corrupt covers malformed input (bad magic, truncated
 * streams, out-of-range records, checksum mismatches).
 */
enum class SourceErrorKind : std::uint8_t
{
    None,
    Io,
    Corrupt,
};

/** Static facts about a stream, known before the first event. */
struct SourceInfo
{
    Tid threads = 0;
    LockId locks = 0;
    VarId vars = 0;
    /** Total events when known upfront (materialized traces, binary
     * files); kUnknownEventCount otherwise (text streams). For
     * files this is the header's declared count, which the readers
     * check truncation against. */
    std::uint64_t events = kUnknownEventCount;
    /** The stream may contain thread lifecycle events (format v2
     * with a dynamic-membership trace). A reservation hint only:
     * `threads` then counts logical thread ids over the whole
     * execution, not concurrently live threads, so consumers should
     * size per-id metadata eagerly but build clocks lazily.
     * Consumers must handle lifecycle events regardless of this
     * flag — a false value never licenses rejecting them. */
    bool lifecycle = false;
    /** Events the input can actually hold: `events` capped by the
     * bytes behind the header (file size ÷ record size), since a
     * corrupt header can declare far more than follows it. Size
     * reservations by this, never by `events`. Set by the binary
     * file readers; kUnknownEventCount elsewhere (text, pipes,
     * in-memory sources). */
    std::uint64_t backedEvents = kUnknownEventCount;

    bool
    eventCountKnown() const
    {
        return events != kUnknownEventCount;
    }
};

/**
 * An immutable span of decoded events — the unit of zero-copy
 * hand-off between a source and its consumers. The span never owns
 * its events; EventSource::readWindow documents the two lifetime
 * contracts (storage-backed vs. source-stable), and the parallel
 * fan-out's WindowBus refcounts published windows so N consumers
 * can borrow one decode without copying it.
 */
struct EventWindow
{
    const Event *data = nullptr;
    std::size_t size = 0;

    bool empty() const { return size == 0; }
    const Event *begin() const { return data; }
    const Event *end() const { return data + size; }
    const Event &operator[](std::size_t i) const { return data[i]; }
};

/**
 * A pull-based stream of trace events.
 *
 * Usage: check failed() after construction (a source that could not
 * open or parse its header starts failed), then call read() until it
 * returns 0 (or next() until it returns false), then check failed()
 * again to distinguish a clean end of stream from a mid-stream error.
 */
class EventSource
{
  public:
    virtual ~EventSource() = default;

    /** Declared id-space bounds (and event count when known). Ids in
     * the stream may still exceed these for hand-edited text files;
     * consumers grow on demand. */
    virtual SourceInfo info() const = 0;

    /**
     * Produce up to @p max events into @p out; returns how many
     * were produced, 0 at end of stream or on error (check
     * failed()). A source that fails mid-batch delivers the events
     * before the bad one first and returns 0 on the next call. The
     * one pull every source implements: buffered sources (the
     * chunked readers, the shard merge) hand out whole windows
     * without a virtual call per event.
     */
    virtual std::size_t read(Event *out, std::size_t max) = 0;

    /** Produce the next event. Returns false at end of stream or on
     * error (check failed()). */
    bool next(Event &out) { return read(&out, 1) == 1; }

    /**
     * Produce the next window of up to @p max events without a
     * per-event copy where the source can avoid one. @p storage is
     * caller-recycled buffer capacity: the default implementation
     * fills it through read() and returns a span over it. Sources
     * whose events already sit in stable memory (TraceSource) may
     * ignore @p storage and return a direct view.
     *
     * Lifetime contract: the returned span stays valid until
     * @p storage is next written, destroyed, or passed back into
     * readWindow — even across further reads of the source (view
     * spans point into memory that outlives the stream position).
     * This is what lets the parallel fan-out keep several published
     * windows in flight behind the reader.
     *
     * An empty window means end of stream or error (check
     * failed()).
     */
    virtual EventWindow
    readWindow(std::vector<Event> &storage, std::size_t max)
    {
        storage.resize(max);
        const std::size_t n = read(storage.data(), max);
        storage.resize(n);
        return {storage.data(), n};
    }

    /** Rewind to the first event. Returns false when the underlying
     * stream cannot seek. */
    virtual bool rewind() = 0;

    /**
     * Position the stream so the next delivered event is event
     * @p n of the stream (0-based) — the resume entry point of
     * checkpointed analyses. Seeking to 0 is rewind(); seeking at
     * or past the end is valid and yields a clean end of stream.
     * Returns false when the source cannot seek (non-seekable
     * stream) or the reposition failed (the source may then be
     * failed()).
     *
     * The default decodes and discards the prefix after a
     * rewind() — correct for any seekable source, O(n). Fixed-
     * record readers override this with an O(1) byte seek and the
     * shard merge with a per-shard binary search, so resuming at
     * event n costs O(tail), not O(n + tail).
     */
    virtual bool
    seekToSequence(std::uint64_t n)
    {
        if (!rewind())
            return false;
        Event scratch;
        for (std::uint64_t i = 0; i < n; i++) {
            if (!next(scratch))
                return !failed();
        }
        return !failed();
    }

    bool failed() const { return !error_.empty(); }
    const std::string &error() const { return error_; }
    /** Kind of the first error (None while !failed()). */
    SourceErrorKind errorKind() const { return errorKind_; }
    /** 1-based line of the first error (text sources; 0 otherwise). */
    std::size_t errorLine() const { return errorLine_; }

  protected:
    /** Record a failure; @p kind defaults to Corrupt (malformed
     * input), the dominant case — I/O failures pass Io. */
    void
    fail(std::size_t line, std::string message,
         SourceErrorKind kind = SourceErrorKind::Corrupt)
    {
        errorLine_ = line;
        error_ = std::move(message);
        errorKind_ = kind;
    }

    void
    clearError()
    {
        errorLine_ = 0;
        error_.clear();
        errorKind_ = SourceErrorKind::None;
    }

  private:
    std::string error_;
    std::size_t errorLine_ = 0;
    SourceErrorKind errorKind_ = SourceErrorKind::None;
};

/**
 * EventSource over a materialized Trace — a view when constructed
 * from a reference (the trace must outlive the source), owning when
 * constructed from an rvalue (generators hand their product here).
 */
class TraceSource final : public EventSource
{
  public:
    explicit TraceSource(const Trace &trace) : trace_(&trace) {}
    explicit TraceSource(Trace &&trace)
        : owned_(std::make_unique<Trace>(std::move(trace))),
          trace_(owned_.get())
    {}

    SourceInfo
    info() const override
    {
        return {trace_->numThreads(), trace_->numLocks(),
                trace_->numVars(), trace_->size(),
                trace_->hasLifecycle()};
    }

    std::size_t
    read(Event *out, std::size_t max) override
    {
        const EventWindow window = take(max);
        std::copy(window.begin(), window.end(), out);
        return window.size;
    }

    /** Pure view: the trace is materialized and outlives the run,
     * so windows are spans straight into it — no copy at all. */
    EventWindow
    readWindow(std::vector<Event> &, std::size_t max) override
    {
        return take(max);
    }

    bool
    rewind() override
    {
        pos_ = 0;
        return true;
    }

    bool
    seekToSequence(std::uint64_t n) override
    {
        pos_ = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, trace_->size()));
        return true;
    }

    const Trace &trace() const { return *trace_; }

  private:
    /** The next up to @p max events, consumed. */
    EventWindow
    take(std::size_t max)
    {
        const std::size_t n = std::min(max, trace_->size() - pos_);
        const EventWindow window{trace_->events().data() + pos_, n};
        pos_ += n;
        return window;
    }

    std::unique_ptr<Trace> owned_;
    const Trace *trace_;
    std::size_t pos_ = 0;
};

/** Default event window of the chunked binary reader (events held
 * in memory at any time, not a file-size limit). */
inline constexpr std::size_t kDefaultSourceWindow = 4096;

/** Streaming reader over the text format, borrowing @p is. Holds
 * one line at a time. */
std::unique_ptr<EventSource> makeTextEventSource(std::istream &is);

/** Streaming reader over the binary format, borrowing @p is. Holds
 * at most @p window events at a time. */
std::unique_ptr<EventSource>
makeBinaryEventSource(std::istream &is,
                      std::size_t window = kDefaultSourceWindow);

/**
 * Open a trace file as a chunked streaming source; format chosen by
 * extension: ".tcb" binary, ".tcs" a shard-set member (the whole
 * set opens, merged back into capture order — see trace/shard.hh),
 * anything else text, matching loadTrace(). The returned source
 * owns the file stream(s). On open or header failure the source is
 * returned in the failed() state (never null).
 */
std::unique_ptr<EventSource>
openTraceFile(const std::string &path,
              std::size_t window = kDefaultSourceWindow);

/** A source that is born failed() with @p message — for factories
 * that must report "could not even open the input" through the
 * EventSource error channel. Defaults to an Io-kind error (the
 * could-not-open case); pass Corrupt for malformed-set errors. */
std::unique_ptr<EventSource>
makeFailedSource(std::string message,
                 SourceErrorKind kind = SourceErrorKind::Io);

} // namespace tc

#endif // TC_TRACE_EVENT_SOURCE_HH
