/**
 * @file
 * Trace serialization.
 *
 * Two formats:
 *  - text (.tct): human-readable, one event per line
 *        # comments allowed
 *        threads <k> locks <nl> vars <nv>
 *        <tid> acq <lock> | <tid> rel <lock> | <tid> r <var> |
 *        <tid> w <var> | <tid> fork <tid> | <tid> join <tid>
 *  - binary (.tcb): "TCTB1" magic, header counts, raw 12-byte events.
 *
 * These replace the RV-Predict / ThreadSanitizer trace logs the paper
 * consumed (see DESIGN.md §5).
 */

#ifndef TC_TRACE_TRACE_IO_HH
#define TC_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/event_source.hh"
#include "trace/trace.hh"

namespace tc {

/** Result of a parse attempt. */
struct ParseResult
{
    bool ok = true;
    std::size_t line = 0;    ///< 1-based line of first error (text)
    std::string message;
    Trace trace;
};

/** Write @p trace in the text format. */
void writeTraceText(const Trace &trace, std::ostream &os);
/** Parse the text format. */
ParseResult readTraceText(std::istream &is);

/** Write @p trace in the binary format. Returns false on I/O error. */
bool writeTraceBinary(const Trace &trace, std::ostream &os);
/** Parse the binary format. */
ParseResult readTraceBinary(std::istream &is);

/** Convenience file wrappers; format chosen by extension
 * (".tcb" binary, anything else text — except ".tcs", which names
 * shard sets that only trace/shard.hh writes; saving to one is
 * refused). Loading drains the chunked reader of openTraceFile()
 * in one pass, with no second materialized copy. */
bool saveTrace(const Trace &trace, const std::string &path);
ParseResult loadTrace(const std::string &path);

/**
 * Drain @p source into @p path without materializing a Trace
 * (streaming format conversion); format by extension as above.
 * Returns false on I/O or stream error.
 */
bool saveTraceStream(EventSource &source, const std::string &path);

} // namespace tc

#endif // TC_TRACE_TRACE_IO_HH
