#include "trace/event_source.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <vector>

#include "support/strings.hh"
#include "trace/shard.hh"

namespace tc {

namespace {

/** A non-negative decimal integer (saturating at INT64_MAX). */
bool
parseId(const std::string &text, std::int64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoll(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0' && out >= 0;
}

bool
parseOp(const std::string &text, OpType &out)
{
    if (text == "r") {
        out = OpType::Read;
    } else if (text == "w") {
        out = OpType::Write;
    } else if (text == "acq") {
        out = OpType::Acquire;
    } else if (text == "rel") {
        out = OpType::Release;
    } else if (text == "fork") {
        out = OpType::Fork;
    } else if (text == "join") {
        out = OpType::Join;
    } else if (text == "tcreate") {
        out = OpType::ThreadCreate;
    } else if (text == "tjoin") {
        out = OpType::ThreadJoin;
    } else if (text == "tretire") {
        out = OpType::ThreadRetire;
    } else {
        return false;
    }
    return true;
}

/** Streaming reader over the text format: one line in memory at a
 * time, header parsed eagerly so info() is valid upfront. */
class TextEventSource final : public EventSource
{
  public:
    explicit TextEventSource(std::istream &is)
        : is_(&is), start_(is.tellg())
    {
        parseHeader();
    }

    /** Owning variant over an opened file stream. */
    TextEventSource(std::unique_ptr<std::istream> owned)
        : owned_(std::move(owned)), is_(owned_.get()),
          start_(is_->tellg())
    {
        parseHeader();
    }

    SourceInfo info() const override { return info_; }

    std::size_t
    read(Event *out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && nextLine(out[n]))
            n++;
        return n;
    }

    bool
    rewind() override
    {
        // Back to where the stream stood at construction (byte 0
        // for files; borrowed streams may start mid-stream).
        is_->clear();
        if (!is_->seekg(start_))
            return false;
        line_ = 0;
        clearError();
        parseHeader();
        return !failed();
    }

  private:
    /** Parse the next event line into @p out; false at end of
     * stream or on error. */
    bool
    nextLine(Event &out)
    {
        if (failed())
            return false;
        std::string line;
        while (std::getline(*is_, line)) {
            line_++;
            const std::string text = trimString(line);
            if (text.empty() || text[0] == '#')
                continue;
            return parseEventLine(text, out);
        }
        // getline fails on both EOF and I/O errors; only the
        // former is a clean end of stream.
        if (is_->bad()) {
            fail(line_, "I/O error while reading trace",
                 SourceErrorKind::Io);
        }
        return false;
    }

    void
    parseHeader()
    {
        std::string line;
        while (std::getline(*is_, line)) {
            line_++;
            const std::string text = trimString(line);
            if (text.empty() || text[0] == '#') {
                // The v2 writer stamps a version comment before the
                // header; v1 files have no such line. Purely a
                // reservation hint — hand-written v2 files without
                // it still parse (and analyze) correctly.
                if (text.rfind("# treeclock trace v", 0) == 0 &&
                    text != "# treeclock trace v1")
                    info_.lifecycle = true;
                continue;
            }
            std::istringstream ls(text);
            std::string kw_threads, kw_locks, kw_vars;
            std::int64_t k = 0, nl = 0, nv = 0;
            if (!(ls >> kw_threads >> k >> kw_locks >> nl >>
                  kw_vars >> nv) ||
                kw_threads != "threads" || kw_locks != "locks" ||
                kw_vars != "vars" || k < 0 || nl < 0 || nv < 0) {
                fail(line_,
                     "expected header: threads <k> locks <nl> "
                     "vars <nv>");
                return;
            }
            if (k > kMaxIdWidth || nl > kMaxIdWidth ||
                nv > kMaxIdWidth) {
                fail(line_, "header width out of range");
                return;
            }
            info_.threads = static_cast<Tid>(k);
            info_.locks = static_cast<LockId>(nl);
            info_.vars = static_cast<VarId>(nv);
            return;
        }
        fail(line_, "missing header line");
    }

    bool
    parseEventLine(const std::string &text, Event &out)
    {
        std::istringstream ls(text);
        std::string tid_text, op_text, target_text;
        if (!(ls >> tid_text >> op_text >> target_text)) {
            fail(line_, "expected: <tid> <op> <target>");
            return false;
        }
        std::string extra;
        if (ls >> extra) {
            fail(line_, "trailing tokens");
            return false;
        }
        std::int64_t tid = 0, target = 0;
        if (!parseId(tid_text, tid) ||
            !parseId(target_text, target)) {
            fail(line_, "ids must be non-negative integers");
            return false;
        }
        if (tid > kMaxEventId || target > kMaxEventId) {
            fail(line_, "event id out of range");
            return false;
        }
        OpType op;
        if (!parseOp(op_text, op)) {
            fail(line_,
                 strFormat("unknown op '%s'", op_text.c_str()));
            return false;
        }
        out = Event(static_cast<Tid>(tid), op,
                    static_cast<std::uint32_t>(target));
        return true;
    }

    std::unique_ptr<std::istream> owned_;
    std::istream *is_;
    std::istream::pos_type start_;
    SourceInfo info_;
    std::size_t line_ = 0;
};

/** v1 magic: formats that predate the lifecycle ops. Readers keep
 * accepting it, bounding op codes at kMaxOpV1 so a v1 file carrying
 * a lifecycle op code is corrupt, not silently reinterpreted. */
constexpr char kMagicV1[6] = {'T', 'C', 'T', 'B', '1', '\0'};
/** v2 magic: same wire layout, op codes up to kMaxOpV2. */
constexpr char kMagicV2[6] = {'T', 'C', 'T', 'B', '2', '\0'};
/** On-wire bytes per event: int32 tid, uint32 target, uint8 op. */
constexpr std::size_t kEventBytes = 9;
/** Bytes of the fixed binary-trace header: magic, 3×u32 id-space
 * bounds, u64 event count. */
constexpr std::size_t kBinaryHeaderBytes =
    sizeof(kMagicV1) + 3 * sizeof(std::uint32_t) +
    sizeof(std::uint64_t);

/**
 * Streaming reader over the binary format: memory use is O(window)
 * regardless of file size. Each refill is one bulk read of the next
 * window of raw records into buf_, and a single table-dispatched
 * loop decodes and validates that window. seekToSequence() is one
 * byte seek.
 */
class BinaryEventSource final : public EventSource
{
  public:
    BinaryEventSource(std::istream &is, std::size_t window)
        : is_(&is), start_(is.tellg()),
          window_(window == 0 ? 1 : window)
    {
        parseHeader();
    }

    BinaryEventSource(std::unique_ptr<std::istream> owned,
                      std::size_t window)
        : owned_(std::move(owned)), is_(owned_.get()),
          start_(is_->tellg()), window_(window == 0 ? 1 : window)
    {
        parseHeader();
    }

    SourceInfo info() const override { return info_; }

    /** Decode and validate the rest of the current window in one
     * pass per iteration. */
    std::size_t
    read(Event *out, std::size_t max) override
    {
        if (failed())
            return 0;
        std::size_t n = 0;
        while (n < max) {
            if (bufPos_ >= bufCount_ && !refill())
                break;
            const std::size_t take =
                std::min(max - n, bufCount_ - bufPos_);
            const std::size_t good = decodeRun(out + n, take);
            n += good;
            if (good < take)
                break; // fail() recorded by decodeRun
        }
        return n;
    }

    bool
    rewind() override
    {
        is_->clear();
        if (!is_->seekg(start_))
            return false;
        delivered_ = 0;
        bufPos_ = bufCount_ = 0;
        clearError();
        parseHeader();
        return !failed();
    }

    /** Events are fixed-width records after a fixed-width header,
     * so resuming at event n is a single byte seek; at or past the
     * end nothing is left to deliver and refill() reports end of
     * stream. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (!rewind())
            return false;
        // parseHeader() left the stream at the first record.
        if (n < info_.events &&
            !is_->seekg(static_cast<std::streamoff>(n) *
                            static_cast<std::streamoff>(
                                kEventBytes),
                        std::ios::cur))
            return false;
        delivered_ = n;
        return true;
    }

  private:
    void
    parseHeader()
    {
        unsigned char header[kBinaryHeaderBytes];
        is_->read(reinterpret_cast<char *>(header), sizeof(header));
        const auto got = static_cast<std::size_t>(is_->gcount());
        if (got < sizeof(kMagicV1)) {
            fail(0, "bad magic (not a treeclock binary trace)");
            return;
        }
        if (std::memcmp(header, kMagicV1, sizeof(kMagicV1)) == 0) {
            maxOp_ = kMaxOpV1;
        } else if (std::memcmp(header, kMagicV2,
                               sizeof(kMagicV2)) == 0) {
            maxOp_ = kMaxOpV2;
        } else {
            fail(0, "bad magic (not a treeclock binary trace)");
            return;
        }
        if (got < sizeof(header)) {
            fail(0, "truncated header");
            return;
        }
        std::uint32_t bounds[3];
        std::uint64_t n = 0;
        std::memcpy(bounds, header + sizeof(kMagicV1),
                    sizeof(bounds));
        std::memcpy(&n, header + sizeof(kMagicV1) + sizeof(bounds),
                    sizeof(n));
        if (std::max({bounds[0], bounds[1], bounds[2]}) >
            kMaxIdWidth) {
            fail(0, "header width out of range");
            return;
        }
        info_.threads = static_cast<Tid>(bounds[0]);
        info_.locks = static_cast<LockId>(bounds[1]);
        info_.vars = static_cast<VarId>(bounds[2]);
        info_.events = n;
        const std::uint64_t records = recordsAfterHeader();
        info_.backedEvents =
            records == kUnknownEventCount ? records
                                          : std::min(n, records);
        // v2 files may carry lifecycle events, so their declared
        // thread count can far exceed the live set — tell consumers
        // to reserve accordingly.
        info_.lifecycle = maxOp_ == kMaxOpV2;
        // Validation dispatch table: one byte-indexed load per
        // record instead of a compare against the format version.
        for (std::size_t op = 0; op < sizeof(opValid_); op++)
            opValid_[op] = op <= maxOp_;
    }

    /** Whole records between the read position and the end of the
     * stream, leaving the position where it was;
     * kUnknownEventCount when the stream cannot seek (a pipe). */
    std::uint64_t
    recordsAfterHeader()
    {
        const std::istream::pos_type here = is_->tellg();
        if (here == std::istream::pos_type(-1) ||
            !is_->seekg(0, std::ios::end)) {
            is_->clear();
            return kUnknownEventCount;
        }
        const std::istream::pos_type end = is_->tellg();
        is_->seekg(here);
        return static_cast<std::uint64_t>(end - here) / kEventBytes;
    }

    /** Read the next window of raw records into buf_. */
    bool
    refill()
    {
        if (delivered_ >= info_.events)
            return false;
        const std::uint64_t remaining = info_.events - delivered_;
        const std::size_t want = static_cast<std::size_t>(
            remaining < window_ ? remaining : window_);
        const std::size_t wantBytes = want * kEventBytes;
        buf_.resize(wantBytes);
        is_->read(reinterpret_cast<char *>(buf_.data()),
                  static_cast<std::streamsize>(wantBytes));
        const auto got = static_cast<std::size_t>(is_->gcount());
        if (got < wantBytes && got % kEventBytes != 0) {
            fail(0, strFormat(
                        "truncated event stream at event %llu",
                        static_cast<unsigned long long>(
                            delivered_ + got / kEventBytes)));
            return false;
        }
        bufCount_ = got / kEventBytes;
        bufPos_ = 0;
        if (bufCount_ == 0) {
            fail(0, strFormat(
                        "truncated event stream at event %llu",
                        static_cast<unsigned long long>(
                            delivered_)));
            return false;
        }
        return true;
    }

    /** Decode @p take records of the current window into @p out in
     * one pass. Returns how many validated; on a bad record the
     * prefix is delivered, the cursor has consumed the bad record
     * and fail() is set. */
    std::size_t
    decodeRun(Event *out, std::size_t take)
    {
        const unsigned char *p = buf_.data() + bufPos_ * kEventBytes;
        for (std::size_t i = 0; i < take;
             i++, p += kEventBytes) {
            std::int32_t tid;
            std::uint32_t target;
            std::memcpy(&tid, p, sizeof(tid));
            std::memcpy(&target, p + 4, sizeof(target));
            const std::uint8_t op = p[8];
            bufPos_++;
            delivered_++;
            if (!opValid_[op]) {
                fail(0, "invalid op code");
                return i;
            }
            // Reject ids no valid writer can have produced (a
            // negative tid reads as one above kMaxEventId) before
            // they reach consumers.
            if (static_cast<std::uint32_t>(tid) > kMaxEventId ||
                target > kMaxEventId) {
                fail(0, "event id out of range");
                return i;
            }
            out[i] = Event(static_cast<Tid>(tid),
                           static_cast<OpType>(op), target);
        }
        return take;
    }

    std::unique_ptr<std::istream> owned_;
    std::istream *is_ = nullptr;
    std::istream::pos_type start_;
    SourceInfo info_;
    std::size_t window_;
    std::uint8_t maxOp_ = kMaxOpV1;
    bool opValid_[256] = {};
    /** The current window's raw records. */
    std::vector<unsigned char> buf_;
    std::size_t bufPos_ = 0;
    std::size_t bufCount_ = 0;
    std::uint64_t delivered_ = 0;
};

/** A source that failed before its stream existed (bad path). */
class FailedSource final : public EventSource
{
  public:
    FailedSource(std::string message, SourceErrorKind kind)
    {
        fail(0, std::move(message), kind);
    }
    SourceInfo info() const override { return {}; }
    std::size_t read(Event *, std::size_t) override { return 0; }
    bool rewind() override { return false; }
};

} // namespace

std::unique_ptr<EventSource>
makeTextEventSource(std::istream &is)
{
    return std::make_unique<TextEventSource>(is);
}

std::unique_ptr<EventSource>
makeBinaryEventSource(std::istream &is, std::size_t window)
{
    return std::make_unique<BinaryEventSource>(is, window);
}

std::unique_ptr<EventSource>
makeFailedSource(std::string message, SourceErrorKind kind)
{
    return std::make_unique<FailedSource>(std::move(message), kind);
}

std::unique_ptr<EventSource>
openTraceFile(const std::string &path, std::size_t window)
{
    if (isShardPath(path))
        return openShardMember(path, window);
    const bool binary =
        path.size() >= 4 &&
        path.compare(path.size() - 4, 4, ".tcb") == 0;
    auto is = std::make_unique<std::ifstream>(
        path, binary ? std::ios::binary : std::ios::in);
    if (!*is) {
        return makeFailedSource(
            strFormat("cannot open '%s'", path.c_str()));
    }
    if (binary) {
        return std::make_unique<BinaryEventSource>(std::move(is),
                                                   window);
    }
    return std::make_unique<TextEventSource>(std::move(is));
}

} // namespace tc
