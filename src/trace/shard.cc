#include "trace/shard.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "support/strings.hh"
#include "trace/fault_injection.hh"
#include "trace/loser_tree.hh"

namespace tc {

namespace {

/** v1 magic: pre-lifecycle shard sets. Readers accept it and bound
 * op codes at kMaxOpV1; the wire layout is identical to v2. */
constexpr char kShardMagicV1[6] = {'T', 'C', 'S', 'H', '1', '\0'};
/** v2 magic: op codes up to kMaxOpV2 (lifecycle events). */
constexpr char kShardMagicV2[6] = {'T', 'C', 'S', 'H', '2', '\0'};

/** Fixed-width header: magic, then shardIndex, shardCount, threads,
 * locks, vars (u32 each), then shardEvents, totalEvents (u64 each).
 * The two counts are written as kUnknownEventCount placeholders and
 * patched by finalize(), so readers can tell a crashed capture from
 * a finalized one. */
constexpr std::size_t kCountsOffset =
    sizeof(kShardMagicV1) + 5 * sizeof(std::uint32_t);
constexpr std::size_t kShardHeaderBytes =
    kCountsOffset + 2 * sizeof(std::uint64_t);

/** On-wire bytes per shard record: u64 global sequence number, then
 * the binary event encoding (i32 tid, u32 target, u8 op). */
constexpr std::size_t kShardRecordBytes = 17;

/** Staged bytes at which a shard's buffer goes to its file: one
 * write() per 256 KiB of records. */
constexpr std::size_t kFlushBytes = 256 << 10;

struct ShardHeader
{
    /** Decoded from the magic, never a wire field: 1 for TCSH1
     * sets, 2 for TCSH2. Bounds the op codes readBatch accepts. */
    std::uint8_t version = 2;
    std::uint32_t index = 0;
    std::uint32_t count = 0;
    std::uint32_t threads = 0;
    std::uint32_t locks = 0;
    std::uint32_t vars = 0;
    std::uint64_t shardEvents = 0;
    std::uint64_t totalEvents = 0;
};

void
encodeShardHeader(unsigned char *out, const ShardHeader &h)
{
    std::memcpy(out,
                h.version >= 2 ? kShardMagicV2 : kShardMagicV1,
                sizeof(kShardMagicV1));
    const std::uint32_t words[5] = {h.index, h.count, h.threads,
                                    h.locks, h.vars};
    std::memcpy(out + sizeof(kShardMagicV1), words, sizeof(words));
    const std::uint64_t counts[2] = {h.shardEvents, h.totalEvents};
    std::memcpy(out + kCountsOffset, counts, sizeof(counts));
}

/** write() until @p n bytes landed (or a non-EINTR error). */
bool
writeAll(int fd, const unsigned char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t wrote = ::write(fd, data, n);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/** pwrite() @p n bytes at @p offset, retrying shorts/EINTR. */
bool
pwriteAll(int fd, const unsigned char *data, std::size_t n,
          std::size_t offset)
{
    while (n > 0) {
        const ssize_t wrote = ::pwrite(
            fd, data, n, static_cast<off_t>(offset));
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        offset += static_cast<std::size_t>(wrote);
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

bool
readShardHeader(std::istream &is, ShardHeader &h)
{
    unsigned char hdr[kShardHeaderBytes];
    if (!is.read(reinterpret_cast<char *>(hdr), sizeof(hdr)))
        return false;
    if (std::memcmp(hdr, kShardMagicV1,
                    sizeof(kShardMagicV1)) == 0)
        h.version = 1;
    else if (std::memcmp(hdr, kShardMagicV2,
                         sizeof(kShardMagicV2)) == 0)
        h.version = 2;
    else
        return false;
    std::uint32_t words[5];
    std::uint64_t counts[2];
    std::memcpy(words, hdr + sizeof(kShardMagicV1), sizeof(words));
    std::memcpy(counts, hdr + kCountsOffset, sizeof(counts));
    h.index = words[0];
    h.count = words[1];
    h.threads = words[2];
    h.locks = words[3];
    h.vars = words[4];
    h.shardEvents = counts[0];
    h.totalEvents = counts[1];
    return true;
}

/** One decoded shard record: the global stamp and its event. */
struct ShardRecord
{
    std::uint64_t seq = 0;
    Event event;
};

/**
 * Batched, validating decoder over one shard file. Reads at most
 * `window` raw records per refill and decodes them into ShardRecord
 * batches — the unit the merge moves around. Validation (op/id
 * ranges, strictly increasing sequence numbers) happens here, once.
 * Each refill is one bulk read of the next window into raw_.
 */
class ShardFileReader
{
  public:
    ShardFileReader(std::string path, std::size_t window)
        : path_(std::move(path)), window_(window == 0 ? 1 : window)
    {
        open();
    }

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const ShardHeader &header() const { return header_; }
    const std::string &path() const { return path_; }
    /** Records the file can hold: the declared count capped by the
     * bytes after the header (kUnknownEventCount on a pipe). */
    std::uint64_t backedEvents() const { return backedEvents_; }

    /**
     * Decode the next batch (≤ window records) into @p out.
     * Returns false — with @p out empty — at end of shard or on
     * error (ok() tells which). A batch that hits a bad record
     * mid-decode delivers the good prefix now and fails the *next*
     * call, so consumers see every valid record before the error.
     * (For a torn trailing record this deliberately delivers the
     * final window's complete records first — the old
     * one-record-at-a-time reader dropped them and failed at the
     * window boundary instead.)
     */
    bool
    readBatch(std::vector<ShardRecord> &out)
    {
        out.clear();
        if (!ok() || delivered_ >= header_.shardEvents)
            return false;
        const std::uint64_t remaining =
            header_.shardEvents - delivered_;
        const std::size_t want = static_cast<std::size_t>(
            remaining < window_ ? remaining : window_);
        raw_.resize(want * kShardRecordBytes);
        is_.read(reinterpret_cast<char *>(raw_.data()),
                 static_cast<std::streamsize>(raw_.size()));
        const auto got = static_cast<std::size_t>(is_.gcount());
        const std::size_t records = got / kShardRecordBytes;
        if (records == 0) {
            setError(strFormat(
                "%s: truncated shard at event %llu", path_.c_str(),
                static_cast<unsigned long long>(delivered_)));
            return false;
        }
        out.reserve(records);
        for (std::size_t j = 0; j < records; j++) {
            const unsigned char *p =
                raw_.data() + j * kShardRecordBytes;
            std::uint64_t seq;
            std::int32_t tid;
            std::uint32_t target;
            std::memcpy(&seq, p, sizeof(seq));
            std::memcpy(&tid, p + 8, sizeof(tid));
            std::memcpy(&target, p + 12, sizeof(target));
            const std::uint8_t op = p[16];
            const std::uint64_t index = delivered_ + j;
            if (op > (header_.version >= 2 ? kMaxOpV2
                                           : kMaxOpV1) ||
                static_cast<std::uint32_t>(tid) > kMaxEventId ||
                target > kMaxEventId) {
                setError(strFormat(
                    "%s: corrupt record at event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            if (index > 0 && seq <= lastSeq_) {
                setError(strFormat(
                    "%s: sequence numbers not increasing at "
                    "event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            if (seq == kLoserTreeInfKey) {
                // The all-ones stamp is the merge's in-band
                // "exhausted" sentinel; no writer can produce it
                // (counts would overflow first), so treat it as
                // corruption instead of silently ending the
                // merged stream early.
                setError(strFormat(
                    "%s: corrupt record at event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            lastSeq_ = seq;
            out.push_back(
                {seq, Event(static_cast<Tid>(tid),
                            static_cast<OpType>(op), target)});
        }
        if (ok() && got % kShardRecordBytes != 0) {
            // A torn trailing record: hand out the whole ones
            // first, fail on the next call.
            setError(strFormat(
                "%s: truncated shard at event %llu", path_.c_str(),
                static_cast<unsigned long long>(delivered_ +
                                                records)));
        }
        delivered_ += out.size();
        return !out.empty();
    }

    bool
    rewind()
    {
        is_.clear();
        if (!is_.seekg(static_cast<std::streamoff>(kShardHeaderBytes)))
            return false;
        delivered_ = 0;
        lastSeq_ = 0;
        error_.clear();
        return true;
    }

    /** Global stamp of record @p i — a header-relative random probe
     * (no validation). Moves the read position; only the seek path
     * uses it, and it reposition()s afterwards. */
    bool
    seqAt(std::uint64_t i, std::uint64_t &out)
    {
        const std::uint64_t off =
            kShardHeaderBytes + i * kShardRecordBytes;
        is_.clear();
        if (!is_.seekg(static_cast<std::streamoff>(off)))
            return false;
        return static_cast<bool>(is_.read(
            reinterpret_cast<char *>(&out), sizeof(out)));
    }

    /**
     * Records of this shard with stamp < @p key. Stamps are
     * strictly increasing within a shard (validated on decode), so
     * this is a binary search over O(log m) single-record probes —
     * the per-shard half of the merged seekToSequence().
     */
    bool
    countBelow(std::uint64_t key, std::uint64_t &out)
    {
        std::uint64_t lo = 0, hi = header_.shardEvents;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            std::uint64_t seq = 0;
            if (!seqAt(mid, seq))
                return false;
            if (seq < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        out = lo;
        return true;
    }

    /** Position the reader so the next readBatch() starts at record
     * @p index (clamped to end-of-shard). Restores the
     * monotonicity baseline from the preceding record so the
     * decode-time validation keeps working across a seek. */
    bool
    seekToIndex(std::uint64_t index)
    {
        if (index > header_.shardEvents)
            index = header_.shardEvents;
        std::uint64_t prev = 0;
        if (index > 0 && !seqAt(index - 1, prev))
            return false;
        is_.clear();
        if (!is_.seekg(static_cast<std::streamoff>(
                kShardHeaderBytes + index * kShardRecordBytes)))
            return false;
        delivered_ = index;
        lastSeq_ = prev;
        error_.clear();
        return true;
    }

  private:
    void
    open()
    {
        is_.open(path_, std::ios::binary);
        if (!is_) {
            setError(strFormat("cannot open '%s'", path_.c_str()));
            return;
        }
        if (!readShardHeader(is_, header_)) {
            setError(strFormat("%s: bad shard header",
                               path_.c_str()));
            return;
        }
        // The records behind the header bound what a corrupt
        // declared count may reserve (unknown when the file cannot
        // seek, e.g. a pipe).
        if (is_.seekg(0, std::ios::end)) {
            const auto bytes = static_cast<std::uint64_t>(
                is_.tellg() - std::streamoff(kShardHeaderBytes));
            backedEvents_ = std::min(header_.shardEvents,
                                     bytes / kShardRecordBytes);
            is_.seekg(static_cast<std::streamoff>(kShardHeaderBytes));
        }
        is_.clear();
        if (header_.shardEvents == kUnknownEventCount ||
            header_.totalEvents == kUnknownEventCount) {
            setError(strFormat(
                "%s: shard was never finalized (crashed capture?)",
                path_.c_str()));
            return;
        }
        if (header_.count == 0 ||
            header_.count > kMaxShardSetCount ||
            header_.index >= header_.count) {
            setError(strFormat("%s: invalid shard index %u of %u",
                               path_.c_str(), header_.index,
                               header_.count));
        }
        if (std::max({header_.threads, header_.locks,
                      header_.vars}) > kMaxIdWidth) {
            setError(strFormat("%s: header width out of range",
                               path_.c_str()));
        }
    }

    /** First error wins: a corrupt record earlier in the stream
     * outranks the torn tail discovered after it. */
    void
    setError(std::string msg)
    {
        if (error_.empty())
            error_ = std::move(msg);
    }

    std::string path_;
    std::string error_;
    std::ifstream is_;
    ShardHeader header_;
    std::uint64_t backedEvents_ = kUnknownEventCount;
    std::size_t window_;
    std::vector<unsigned char> raw_;
    std::uint64_t delivered_ = 0;
    std::uint64_t lastSeq_ = 0;
};

/**
 * Open every member of the set at @p prefix and run the
 * construction-time consistency checks of the merge:
 * headers must agree on the set shape, declared indices must match
 * file names, and per-shard counts must sum to the declared total.
 * Returns the rejection message ("" on success) and fills @p info.
 */
std::string
openShardReaders(
    const std::string &prefix, std::size_t window,
    std::vector<std::unique_ptr<ShardFileReader>> &readers,
    SourceInfo &info)
{
    readers.clear();
    readers.push_back(std::make_unique<ShardFileReader>(
        shardPath(prefix, 0), window));
    if (!readers[0]->ok())
        return readers[0]->error();
    const ShardHeader first = readers[0]->header();
    for (std::uint32_t i = 1; i < first.count; i++) {
        readers.push_back(std::make_unique<ShardFileReader>(
            shardPath(prefix, i), window));
        if (!readers.back()->ok())
            return readers.back()->error();
    }
    std::uint64_t sum = 0;
    std::uint64_t backed = 0;
    for (std::size_t i = 0; i < readers.size(); i++) {
        const ShardHeader &h = readers[i]->header();
        if (h.version != first.version ||
            h.count != first.count ||
            h.threads != first.threads ||
            h.locks != first.locks || h.vars != first.vars ||
            h.totalEvents != first.totalEvents ||
            h.index != static_cast<std::uint32_t>(i)) {
            return strFormat(
                "%s: header disagrees with its shard set",
                readers[i]->path().c_str());
        }
        sum += h.shardEvents;
        const std::uint64_t b = readers[i]->backedEvents();
        backed = backed == kUnknownEventCount || b == kUnknownEventCount
                     ? kUnknownEventCount
                     : backed + b;
    }
    if (sum != first.totalEvents) {
        return strFormat(
            "shard set '%s': per-shard counts sum to %llu "
            "but total is %llu",
            prefix.c_str(), static_cast<unsigned long long>(sum),
            static_cast<unsigned long long>(first.totalEvents));
    }
    info.threads = static_cast<Tid>(first.threads);
    info.locks = static_cast<LockId>(first.locks);
    info.vars = static_cast<VarId>(first.vars);
    info.events = first.totalEvents;
    info.backedEvents = backed;
    info.lifecycle = first.version >= 2;
    return {};
}

/**
 * The value half of a merged seekToSequence(): the smallest stamp
 * key V whose global rank — records across all shards with stamp
 * < V — is at least @p n. Stamps are globally unique, so
 * positioning every shard at its countBelow(V) leaves exactly the
 * first n merged records behind the cursor. Each probe of g(V) is
 * K per-shard binary searches, so the whole seek costs
 * O(K log m log S) single-record reads — never a prefix decode.
 */
bool
findSeekKey(const std::vector<ShardFileReader *> &readers,
            std::uint64_t n, std::uint64_t &out)
{
    std::uint64_t hi = 0;
    for (ShardFileReader *r : readers) {
        const std::uint64_t m = r->header().shardEvents;
        if (m == 0)
            continue;
        std::uint64_t last = 0;
        if (!r->seqAt(m - 1, last))
            return false;
        hi = std::max(hi, last + 1);
    }
    std::uint64_t lo = 0;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        std::uint64_t below = 0;
        for (ShardFileReader *r : readers) {
            std::uint64_t c = 0;
            if (!r->countBelow(mid, c))
                return false;
            below += c;
        }
        if (below >= n)
            hi = mid;
        else
            lo = mid + 1;
    }
    out = lo;
    return true;
}

/**
 * K-way merge of shard readers on global sequence numbers, on the
 * calling thread. Decode happens batch-at-a-time through
 * ShardFileReader; the per-event cost is one loser-tree update.
 */
class MergingEventSource final : public EventSource
{
  public:
    MergingEventSource(const std::string &prefix,
                       std::size_t window)
        : tree_(1)
    {
        std::vector<std::unique_ptr<ShardFileReader>> readers;
        std::string err =
            openShardReaders(prefix, window, readers, info_);
        if (!err.empty()) {
            rejectSet(std::move(err));
            return;
        }
        shards_.resize(readers.size());
        for (std::size_t i = 0; i < readers.size(); i++)
            shards_[i].reader = std::move(readers[i]);
        tree_ = LoserTree(shards_.size());
        loadHeads();
    }

    SourceInfo info() const override { return info_; }

    std::size_t
    read(Event *out, std::size_t max) override
    {
        if (failed())
            return 0;
        std::size_t n = 0;
        while (n < max) {
            if (!pendingError_.empty()) {
                // A reader broke while advancing past the last
                // delivered event; that event was still valid, so
                // the failure surfaces on the next call.
                if (n == 0)
                    failPending();
                break;
            }
            if (tree_.winnerKey() == kLoserTreeInfKey)
                break; // every shard cleanly exhausted
            const std::size_t w = tree_.winner();
            Shard &s = shards_[w];
            out[n++] = s.batch[s.pos].event;
            s.pos++;
            advanceKey(w);
        }
        return n;
    }

    bool
    rewind() override
    {
        // A set rejected at open time (crashed capture, header
        // disagreement, ...) stays rejected: clearing those errors
        // would stream the very data the checks refused, since
        // they only run at construction.
        if (rejected_)
            return false;
        for (Shard &s : shards_) {
            s.batch.clear();
            s.pos = 0;
            if (!s.reader->rewind()) {
                // A partial rewind leaves rewound and mid-stream
                // readers mixed; fail the source so a caller that
                // ignores our return value cannot keep draining a
                // scrambled order.
                fail(0, strFormat("%s: rewind failed",
                                  s.reader->path().c_str()));
                return false;
            }
        }
        clearError();
        pendingError_.clear();
        loadHeads();
        return !failed();
    }

    /** O(tail) resume: per-shard binary searches position every
     * member so the next merged event is global event @p n. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (rejected_)
            return false;
        if (n == 0)
            return rewind();
        std::vector<ShardFileReader *> readers;
        readers.reserve(shards_.size());
        for (Shard &s : shards_)
            readers.push_back(s.reader.get());
        std::uint64_t key = kLoserTreeInfKey;
        if (n < info_.events &&
            !findSeekKey(readers, n, key)) {
            fail(0, "shard seek failed", SourceErrorKind::Io);
            return false;
        }
        for (Shard &s : shards_) {
            std::uint64_t index = s.reader->header().shardEvents;
            if (n < info_.events &&
                !s.reader->countBelow(key, index)) {
                fail(0, "shard seek failed", SourceErrorKind::Io);
                return false;
            }
            s.batch.clear();
            s.pos = 0;
            if (!s.reader->seekToIndex(index)) {
                fail(0, strFormat("%s: seek failed",
                                  s.reader->path().c_str()),
                     SourceErrorKind::Io);
                return false;
            }
        }
        clearError();
        pendingError_.clear();
        loadHeads();
        return !failed();
    }

  private:
    struct Shard
    {
        std::unique_ptr<ShardFileReader> reader;
        std::vector<ShardRecord> batch;
        std::size_t pos = 0;
    };

    /** A construction-time failure; unlike mid-stream I/O errors
     * it survives rewind(). */
    void
    rejectSet(std::string message)
    {
        rejected_ = true;
        fail(0, std::move(message));
    }

    void
    failPending()
    {
        std::string message = std::move(pendingError_);
        pendingError_.clear();
        fail(0, std::move(message));
    }

    /** Load shard @p s's next batch; false at end of shard, with
     * any decode error parked for the next delivery attempt. */
    bool
    refillShard(std::size_t s)
    {
        Shard &shard = shards_[s];
        shard.pos = 0;
        if (!shard.reader->readBatch(shard.batch)) {
            shard.batch.clear();
            if (!shard.reader->ok())
                pendingError_ = shard.reader->error();
            return false;
        }
        return true;
    }

    /** Shard @p w (the tree's winner) consumed its head: feed the
     * tree the next stamp (or the infinite key once the shard is
     * done). */
    void
    advanceKey(std::size_t w)
    {
        Shard &s = shards_[w];
        if (s.pos < s.batch.size()) {
            tree_.update(s.batch[s.pos].seq);
            return;
        }
        tree_.update(refillShard(w) ? s.batch[0].seq
                                    : kLoserTreeInfKey);
    }

    void
    loadHeads()
    {
        std::vector<std::uint64_t> keys(shards_.size(),
                                        kLoserTreeInfKey);
        for (std::size_t s = 0; s < shards_.size(); s++) {
            if (refillShard(s)) {
                keys[s] = shards_[s].batch[0].seq;
            } else if (!pendingError_.empty()) {
                // A shard whose very first batch is broken fails
                // the source at construction, as the one-record
                // head loader always did.
                failPending();
                return;
            }
        }
        tree_.reset(keys);
    }

    std::vector<Shard> shards_;
    SourceInfo info_;
    LoserTree tree_;
    std::string pendingError_;
    bool rejected_ = false;
};

} // namespace

std::string
shardPath(const std::string &prefix, std::uint32_t index)
{
    return strFormat("%s.%u.tcs", prefix.c_str(), index);
}

bool
isShardPath(const std::string &path)
{
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".tcs") == 0;
}

std::uint32_t
shardSetCount(const std::string &prefix)
{
    std::ifstream is(shardPath(prefix, 0), std::ios::binary);
    ShardHeader h;
    if (!is || !readShardHeader(is, h))
        return 0;
    // An out-of-range count is a corrupt header, not a huge set;
    // callers size loops and path lists off this value.
    return h.count > kMaxShardSetCount ? 0 : h.count;
}

bool
parseShardPath(const std::string &path, std::string &prefix,
               std::uint32_t &index)
{
    if (!isShardPath(path))
        return false;
    const std::size_t digits_end = path.size() - 4;
    std::size_t digits_begin = digits_end;
    while (digits_begin > 0 &&
           std::isdigit(static_cast<unsigned char>(
               path[digits_begin - 1])))
        digits_begin--;
    if (digits_begin == digits_end || digits_begin < 2 ||
        path[digits_begin - 1] != '.')
        return false;
    const std::size_t digits = digits_end - digits_begin;
    // Only the canonical shardPath() spelling decomposes: leading
    // zeros ("cap.00.tcs") or overflowing indices would parse to
    // an index naming a *different* file than the one given,
    // defeating the stale-member check in openShardMember().
    if (digits > 9 ||
        (digits > 1 && path[digits_begin] == '0'))
        return false;
    prefix = path.substr(0, digits_begin - 1);
    index = static_cast<std::uint32_t>(std::strtoul(
        path.substr(digits_begin, digits_end - digits_begin)
            .c_str(),
        nullptr, 10));
    return true;
}

ShardWriter::ShardWriter(const std::string &prefix,
                         std::uint32_t shards,
                         const SourceInfo &info)
{
    if (shards == 0)
        shards = 1;
    if (shards > kMaxShardSetCount)
        shards = kMaxShardSetCount;
    ShardHeader h;
    // Versioned by content: lifecycle-free captures stay TCSH1 so
    // readers reconstruct the same lifecycle hint (and therefore
    // the same analysis memory behavior) as the original source.
    h.version = info.lifecycle ? 2 : 1;
    h.count = shards;
    h.threads = static_cast<std::uint32_t>(info.threads);
    h.locks = static_cast<std::uint32_t>(info.locks);
    h.vars = static_cast<std::uint32_t>(info.vars);
    h.shardEvents = kUnknownEventCount;
    h.totalEvents = kUnknownEventCount;
    shards_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; i++) {
        Shard &s = shards_.emplace_back();
        s.staged.reserve(kFlushBytes + kShardRecordBytes);
        const std::string path = shardPath(prefix, i);
        s.fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                      0644);
        h.index = i;
        unsigned char hdr[kShardHeaderBytes];
        encodeShardHeader(hdr, h);
        if (s.fd < 0 || !writeAll(s.fd, hdr, sizeof(hdr))) {
            fail(strFormat("cannot write '%s'", path.c_str()));
            return;
        }
    }
}

ShardWriter::~ShardWriter()
{
    for (const Shard &s : shards_) {
        if (s.fd >= 0)
            ::close(s.fd);
    }
}

void
ShardWriter::fail(std::string message)
{
    failed_ = true;
    error_ = std::move(message);
}

bool
ShardWriter::append(const Event &e)
{
    if (failed_)
        return false;
    if (finalized_) {
        // finalize() patched the header counts; writing a record
        // now would corrupt the file.
        fail("append after finalize");
        return false;
    }
    Shard &s = shards_[static_cast<std::uint32_t>(e.tid) %
                       shardCount()];
    unsigned char rec[kShardRecordBytes];
    const std::uint64_t seq = events_;
    const std::int32_t tid = e.tid;
    const std::uint32_t target = e.target;
    std::memcpy(rec, &seq, sizeof(seq));
    std::memcpy(rec + 8, &tid, sizeof(tid));
    std::memcpy(rec + 12, &target, sizeof(target));
    rec[16] = static_cast<unsigned char>(e.op);
    if (const FaultDecision f = failpoint("shard.append")) {
        if (f.action == FaultAction::Crash)
            faultCrash("shard.append");
        if (f.action == FaultAction::TornWrite) {
            // Persist everything staged plus half of this record,
            // then fail: the torn tail the reader's truncation check
            // must catch.
            s.staged.insert(s.staged.end(), rec, rec + sizeof(seq));
            writeAll(s.fd, s.staged.data(), s.staged.size());
            fail("shard write failed: injected torn write");
            return false;
        }
        fail("injected I/O error while writing shard");
        return false;
    }
    s.staged.insert(s.staged.end(), rec, rec + kShardRecordBytes);
    s.events++;
    events_++;
    return s.staged.size() < kFlushBytes || flush(s);
}

bool
ShardWriter::flush(Shard &s)
{
    if (s.staged.empty())
        return true;
    if (const FaultDecision f = failpoint("shard.flush")) {
        if (f.action == FaultAction::Crash)
            faultCrash("shard.flush");
        if (f.action == FaultAction::TornWrite) {
            // Persist half the staged bytes, then fail: the torn
            // tail the reader's truncation check must catch.
            writeAll(s.fd, s.staged.data(), s.staged.size() / 2);
            fail("shard write failed: injected torn write");
            return false;
        }
        fail("injected I/O error while flushing shard");
        return false;
    }
    if (!writeAll(s.fd, s.staged.data(), s.staged.size())) {
        fail("I/O error while writing shard");
        return false;
    }
    s.staged.clear();
    return true;
}

bool
ShardWriter::finalize()
{
    if (failed_ || finalized_)
        return !failed_ && finalized_;
    if (const FaultDecision f = failpoint("shard.finalize")) {
        // A crash here leaves the kUnknownEventCount sentinel in
        // every header — exactly what readers report as a crashed
        // capture.
        if (f.action == FaultAction::Crash)
            faultCrash("shard.finalize");
        fail("injected I/O error while finalizing shard");
        return false;
    }
    for (Shard &s : shards_) {
        if (!flush(s))
            return false;
    }
    for (const Shard &s : shards_) {
        const std::uint64_t counts[2] = {s.events, events_};
        unsigned char patch[sizeof(counts)];
        std::memcpy(patch, counts, sizeof(counts));
        if (!pwriteAll(s.fd, patch, sizeof(patch), kCountsOffset)) {
            fail("I/O error while finalizing shard");
            return false;
        }
    }
    finalized_ = true;
    return true;
}

std::uint64_t
splitTraceStream(EventSource &source, const std::string &prefix,
                 std::uint32_t shards, std::string *error)
{
    ShardWriter writer(prefix, shards, source.info());
    bool ok = !writer.failed();
    Event buf[256];
    std::size_t n;
    while (ok && (n = source.read(buf, std::size(buf))) != 0) {
        for (std::size_t i = 0; ok && i < n; i++)
            ok = writer.append(buf[i]);
    }
    if (ok && !source.failed() && writer.finalize())
        return writer.eventsWritten();
    if (error != nullptr)
        *error = source.failed() ? source.error() : writer.error();
    // Never leave unfinalized sentinel shards behind: they shadow
    // (and may have truncated) whatever set previously lived at
    // this prefix, and readers misreport them as a crashed
    // capture.
    for (std::uint32_t i = 0; i < writer.shardCount(); i++)
        std::remove(shardPath(prefix, i).c_str());
    return kUnknownEventCount;
}

std::unique_ptr<EventSource>
openShardSet(const std::string &prefix, std::size_t window)
{
    return std::make_unique<MergingEventSource>(prefix, window);
}

std::unique_ptr<EventSource>
openShardMember(const std::string &path, std::size_t window)
{
    std::string prefix;
    std::uint32_t index = 0;
    if (!parseShardPath(path, prefix, index)) {
        return makeFailedSource(
            strFormat("'%s' is not a shard-set member "
                      "(want <prefix>.<index>.tcs)",
                      path.c_str()));
    }
    auto merged = openShardSet(prefix, window);
    // The named member must belong to the set that shard 0's
    // header describes — a stale higher-numbered file from an
    // earlier, wider split would otherwise be silently *excluded*
    // from the very stream the user named it to select.
    if (!merged->failed()) {
        const std::uint32_t count = shardSetCount(prefix);
        if (index >= count) {
            return makeFailedSource(strFormat(
                "'%s' is not a member of its shard set (set has "
                "%u shards; stale file from an earlier split?)",
                path.c_str(), count));
        }
    }
    return merged;
}

} // namespace tc
