#include "trace/trace_io.hh"

#include <fstream>
#include <istream>
#include <ostream>

#include "support/strings.hh"
#include "trace/event_source.hh"
#include "trace/shard.hh"

namespace tc {

namespace {

ParseResult
parseFailure(std::size_t line, std::string msg)
{
    ParseResult r;
    r.ok = false;
    r.line = line;
    r.message = std::move(msg);
    return r;
}

/** Materialize a stream: the whole-file loaders are this thin drain
 * of the chunked sources in event_source.cc. Drains window-at-a-time
 * through read() into one reused buffer — with a known event count
 * the reserve below is the only steady-state allocation, so loading
 * never holds a second materialized copy of the trace. The reserve
 * takes the count the file's bytes can back, not the header's
 * claim: an inflated header then fails as the same truncated
 * stream a streamed run reports, instead of aborting on the
 * allocation. */
ParseResult
drainSource(EventSource &source)
{
    if (source.failed()) {
        return parseFailure(source.errorLine(), source.error());
    }
    ParseResult result;
    const SourceInfo si = source.info();
    result.trace = Trace(si.threads, si.locks, si.vars);
    if (si.backedEvents != kUnknownEventCount)
        result.trace.reserve(si.backedEvents);
    std::vector<Event> buf(kDefaultSourceWindow);
    std::size_t n;
    while ((n = source.read(buf.data(), buf.size())) != 0)
        result.trace.append(buf.data(), n);
    if (source.failed())
        return parseFailure(source.errorLine(), source.error());
    return result;
}

void
writeBinaryHeader(std::ostream &os, Tid threads, LockId locks,
                  VarId vars, std::uint64_t n, bool lifecycle)
{
    // Versioned by content: lifecycle ops require the v2 op range,
    // everything else stays v1 so pre-bump readers (and byte-level
    // golden comparisons) keep working. Readers infer the lifecycle
    // hint from the magic, so over-stamping v2 on a lifecycle-free
    // stream would silently change analysis memory behavior.
    const char magic[6] = {'T', 'C', 'T', 'B',
                           lifecycle ? '2' : '1', '\0'};
    os.write(magic, sizeof(magic));
    const std::uint32_t header[3] = {
        static_cast<std::uint32_t>(threads),
        static_cast<std::uint32_t>(locks),
        static_cast<std::uint32_t>(vars),
    };
    os.write(reinterpret_cast<const char *>(header),
             sizeof(header));
    os.write(reinterpret_cast<const char *>(&n), sizeof(n));
}

void
writeBinaryEvent(std::ostream &os, const Event &e)
{
    const std::int32_t tid = e.tid;
    const std::uint32_t target = e.target;
    const std::uint8_t op = static_cast<std::uint8_t>(e.op);
    os.write(reinterpret_cast<const char *>(&tid), sizeof(tid));
    os.write(reinterpret_cast<const char *>(&target),
             sizeof(target));
    os.write(reinterpret_cast<const char *>(&op), sizeof(op));
}

void
writeTextHeader(std::ostream &os, Tid threads, LockId locks,
                VarId vars, bool lifecycle)
{
    // Informational: the text parser treats '#' lines as comments,
    // so v1 consumers still read v2 files that avoid lifecycle ops.
    // The comment is emitted only when the content needs v2 — the
    // sniffer keys the lifecycle hint off it.
    if (lifecycle)
        os << "# treeclock trace v2\n";
    os << "threads " << threads << " locks " << locks << " vars "
       << vars << "\n";
}

/** The one writer of each format: drain @p source into @p os. When
 * the source cannot announce its event count upfront (text inputs)
 * the binary count slot is patched after the drain, which needs a
 * seekable @p os. */
bool
writeStream(EventSource &source, std::ostream &os, bool binary)
{
    const SourceInfo si = source.info();
    std::streampos count_pos{};
    if (binary) {
        // The count is the last header field, so its offset is
        // measured, not assumed.
        writeBinaryHeader(os, si.threads, si.locks, si.vars,
                          si.eventCountKnown() ? si.events : 0,
                          si.lifecycle);
        count_pos =
            os.tellp() -
            static_cast<std::streamoff>(sizeof(std::uint64_t));
    } else {
        writeTextHeader(os, si.threads, si.locks, si.vars,
                        si.lifecycle);
    }

    std::uint64_t n = 0;
    std::vector<Event> storage;
    EventWindow window;
    while (!(window = source.readWindow(storage, kDefaultSourceWindow))
                .empty()) {
        for (const Event &e : window) {
            if (binary) {
                writeBinaryEvent(os, e);
            } else {
                os << e.tid << ' ' << opName(e.op) << ' ' << e.target
                   << '\n';
            }
        }
        n += window.size;
    }
    if (source.failed() || !os)
        return false;
    if (binary && (!si.eventCountKnown() || si.events != n)) {
        os.seekp(count_pos);
        os.write(reinterpret_cast<const char *>(&n), sizeof(n));
    }
    return static_cast<bool>(os);
}

} // namespace

void
writeTraceText(const Trace &trace, std::ostream &os)
{
    TraceSource source(trace);
    writeStream(source, os, false);
}

ParseResult
readTraceText(std::istream &is)
{
    return drainSource(*makeTextEventSource(is));
}

bool
writeTraceBinary(const Trace &trace, std::ostream &os)
{
    TraceSource source(trace);
    return writeStream(source, os, true);
}

ParseResult
readTraceBinary(std::istream &is)
{
    return drainSource(*makeBinaryEventSource(is));
}

bool
saveTrace(const Trace &trace, const std::string &path)
{
    TraceSource source(trace);
    return saveTraceStream(source, path);
}

ParseResult
loadTrace(const std::string &path)
{
    return drainSource(*openTraceFile(path));
}

bool
saveTraceStream(EventSource &source, const std::string &path)
{
    // Shard sets are written only by trace/shard.hh; falling back
    // to the text format would produce a .tcs no reader accepts.
    if (isShardPath(path))
        return false;
    const bool binary = path.size() >= 4 &&
                        path.compare(path.size() - 4, 4, ".tcb") == 0;
    std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
    return os && writeStream(source, os, binary);
}

} // namespace tc
