/**
 * @file
 * Asynchronous prefetch for event streams.
 *
 * The chunked file readers are synchronous: every window boundary
 * stalls the analysis on decode + I/O of the next window. Because
 * the analysis only ever *pulls* events, that latency is pure
 * overhead — on a .tcs shard set under a cheap analysis, decode and
 * merge are about half of the run, and prefetching gains 1.5–1.7×
 * end to end (docs/ARCHITECTURE.md, Measured verdicts). It gains
 * little on a .tcb, whose decode is cheap.
 * PrefetchEventSource hides it by
 * decorating any EventSource with a background reader thread that
 * stays one window ahead: while the analysis consumes window N, the
 * reader decodes window N+1 into a spare buffer (classic double
 * buffering, generalized to a small bounded queue).
 *
 * The decorator is transparent: the delivered event sequence, the
 * end-of-stream position and the error state are identical to
 * draining the inner source directly (the prefetch test suite pins
 * this for every engine policy × clock). The inner source is only
 * ever touched by the reader thread while it runs, so inner sources
 * need no thread safety of their own.
 */

#ifndef TC_TRACE_PREFETCH_SOURCE_HH
#define TC_TRACE_PREFETCH_SOURCE_HH

#include <memory>

#include "trace/event_source.hh"

namespace tc {

/** Buffers the reader thread keeps in flight. 2 = the consumer's
 * current window plus the one being decoded behind it. */
inline constexpr std::size_t kDefaultPrefetchDepth = 2;

/**
 * Wrap @p inner so it is decoded on a background thread, @p window
 * events per buffer, at most @p depth buffers in flight. Takes
 * ownership of the inner source; never returns null. A failed inner
 * source yields an equally failed decorator.
 */
std::unique_ptr<EventSource>
makePrefetchSource(std::unique_ptr<EventSource> inner,
                   std::size_t window = kDefaultSourceWindow,
                   std::size_t depth = kDefaultPrefetchDepth);

} // namespace tc

#endif // TC_TRACE_PREFETCH_SOURCE_HH
