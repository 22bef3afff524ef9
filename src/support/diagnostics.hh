/**
 * @file
 * One error taxonomy for every CLI.
 *
 * Both race_detector and trace_tool map failures to the same exit
 * codes, so scripts (and the crash-recovery sweeps in CI) can tell
 * *why* a run stopped without parsing stderr:
 *
 *   0  success
 *   1  usage error (bad flags, wrong arity)
 *   2  finding: the tool ran and found what it looked for — races
 *      detected, trace invalid
 *   3  corrupt input: bad magic, truncated stream, out-of-range
 *      record, checksum mismatch, unfinalized capture/snapshot
 *   4  I/O error: unopenable path, read/write failure (including
 *      injected ones)
 *   77 injected crash (kFaultCrashExitCode, fault_injection.hh) —
 *      the process died at a failpoint, by design
 *
 * Source failures carry their classification in
 * EventSource::errorKind(); failures reported as bare strings
 * (trace_io's ParseResult, writer errors) are classified by
 * message shape here, in one place, instead of ad hoc per call
 * site.
 */

#ifndef TC_SUPPORT_DIAGNOSTICS_HH
#define TC_SUPPORT_DIAGNOSTICS_HH

#include <cstdio>
#include <string>

#include "trace/event_source.hh"

namespace tc {

enum ExitCode : int
{
    kExitOk = 0,
    kExitUsage = 1,
    kExitFinding = 2,
    kExitCorrupt = 3,
    kExitIo = 4,
};

/** Exit code for a failed EventSource, from its error kind. */
inline int
exitCodeFor(const EventSource &source)
{
    return source.errorKind() == SourceErrorKind::Io ? kExitIo
                                                     : kExitCorrupt;
}

/** Classify a bare error message: environment failures follow the
 * "cannot open/read/write ..." / "... I/O error ..." spellings used
 * across the codebase; everything else is malformed input. */
inline int
exitCodeForMessage(const std::string &message)
{
    for (const char *marker :
         {"cannot open", "cannot read", "cannot write",
          "cannot create", "I/O error", "write failed",
          "fsync failed", "rename failed"}) {
        if (message.find(marker) != std::string::npos)
            return kExitIo;
    }
    return kExitCorrupt;
}

/**
 * The one spelling of a diagnostic both CLIs print:
 * "error: <message> (line N)" with the line only when meaningful.
 * Returns the exit code for the caller to return.
 */
inline int
reportError(const std::string &message, std::size_t line,
            int exit_code)
{
    if (line > 0) {
        std::fprintf(stderr, "error: %s (line %zu)\n",
                     message.c_str(), line);
    } else {
        std::fprintf(stderr, "error: %s\n", message.c_str());
    }
    return exit_code;
}

/** The one spelling of a trace-validity failure, whether
 * Trace::validate() found it in a materialized trace or a streamed
 * analysis threw TraceInputError: a finding, exit 2. */
inline int
reportMalformedTrace(std::size_t event_index, const std::string &message)
{
    std::fprintf(stderr, "error: malformed trace at event %zu: %s\n",
                 event_index, message.c_str());
    return kExitFinding;
}

/** reportError for a failed source, classified by errorKind(). */
inline int
reportSourceError(const EventSource &source)
{
    return reportError(source.error(), source.errorLine(),
                       exitCodeFor(source));
}

} // namespace tc

#endif // TC_SUPPORT_DIAGNOSTICS_HH
