#include "trace/snapshot.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "core/serial.hh"
#include "support/strings.hh"
#include "trace/fault_injection.hh"

namespace tc {

namespace {

constexpr char kSnapMagic[8] = {'T', 'C', 'S', 'N',
                                'A', 'P', '1', '\0'};
/** magic + version + finalized flag + section count. */
constexpr std::size_t kSnapHeaderBytes =
    sizeof(kSnapMagic) + 4 + 1 + 4;
/** Offset of the finalized flag within the header. */
constexpr std::size_t kFinalizedOffset = sizeof(kSnapMagic) + 4;

constexpr std::uint32_t kSectionMeta = 0x4154454Du;     // "META"
constexpr std::uint32_t kSectionConsumer = 0x534E4F43u; // "CONS"

void
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
}

/**
 * write(2) all of @p data to @p fd, retrying transient failures
 * (EINTR, injected transient-eio) a bounded number of times with
 * exponential backoff. The "snapshot.write" failpoint can also
 * tear the write (persist a prefix, then hard error) or crash the
 * process mid-write.
 */
bool
writeAll(int fd, const std::uint8_t *data, std::size_t size,
         std::string *error)
{
    std::size_t off = 0;
    int transient = 0;
    while (off < size) {
        if (const FaultDecision f = failpoint("snapshot.write")) {
            if (f.action == FaultAction::Crash)
                faultCrash("snapshot.write");
            if (f.action == FaultAction::TransientEio) {
                if (++transient >= 4) {
                    setError(error,
                             "snapshot write: transient I/O "
                             "errors exhausted retries");
                    return false;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1L << transient));
                continue;
            }
            if (f.action == FaultAction::TornWrite) {
                const std::size_t half = (size - off) / 2;
                if (half > 0)
                    (void)!::write(fd, data + off, half);
                setError(error, "snapshot write failed: "
                                "injected torn write");
                return false;
            }
            setError(error,
                     "snapshot write: injected I/O error");
            return false;
        }
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, strFormat("snapshot write failed: %s",
                                      std::strerror(errno)));
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Append one checksummed section to the container image. */
void
appendSection(ByteSink &image, std::uint32_t tag,
              const ByteSink &payload)
{
    image.putU32(tag);
    image.putU64(payload.size());
    image.putU32(crc32(payload.bytes().data(), payload.size()));
    image.putBytes(payload.bytes().data(), payload.size());
}

/** Parsed section table: tag + span into the file image. */
struct Section
{
    std::uint32_t tag = 0;
    const std::uint8_t *data = nullptr;
    std::size_t size = 0;
};

bool
readFile(const std::string &path, std::vector<std::uint8_t> &out,
         std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        setError(error, strFormat("cannot open '%s'",
                                  path.c_str()));
        return false;
    }
    is.seekg(0, std::ios::end);
    const std::streamoff size = is.tellg();
    if (size < 0) {
        setError(error, strFormat("cannot read '%s'",
                                  path.c_str()));
        return false;
    }
    is.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(size));
    if (size > 0 &&
        !is.read(reinterpret_cast<char *>(out.data()), size)) {
        setError(error, strFormat("cannot read '%s'",
                                  path.c_str()));
        return false;
    }
    return true;
}

/**
 * Validate the container (magic, version, finalized sentinel,
 * every section checksum) and decode the meta section. On success
 * @p sections holds the CONS sections in order.
 */
bool
parseSnapshot(const std::string &path,
              const std::vector<std::uint8_t> &bytes,
              SnapshotMeta *meta, std::vector<Section> *sections,
              std::string *error)
{
    const auto corrupt = [&](const char *what) {
        setError(error, strFormat("%s: %s", path.c_str(), what));
        return false;
    };

    if (bytes.size() < kSnapHeaderBytes ||
        std::memcmp(bytes.data(), kSnapMagic,
                    sizeof(kSnapMagic)) != 0)
        return corrupt("not a treeclock snapshot (bad magic)");
    ByteSource header(bytes.data() + sizeof(kSnapMagic),
                      kSnapHeaderBytes - sizeof(kSnapMagic));
    std::uint32_t version = 0, section_count = 0;
    std::uint8_t finalized = 0;
    if (!header.getU32(version) || !header.getU8(finalized) ||
        !header.getU32(section_count))
        return corrupt("truncated snapshot header");
    if (version < kSnapshotVersionMin ||
        version > kSnapshotVersion)
        return corrupt("unsupported snapshot version");
    if (finalized != 1) {
        return corrupt(
            "snapshot was never finalized (crashed checkpoint?)");
    }
    if (section_count == 0)
        return corrupt("snapshot has no sections");

    ByteSource body(bytes.data() + kSnapHeaderBytes,
                    bytes.size() - kSnapHeaderBytes);
    std::vector<Section> parsed;
    // The header sits outside every checksum, so a flipped count
    // must not drive the allocation: each section needs at least
    // its 16-byte tag/length/CRC header in the body.
    parsed.reserve(std::min<std::size_t>(section_count,
                                         body.remaining() / 16));
    for (std::uint32_t s = 0; s < section_count; s++) {
        std::uint32_t tag = 0, crc = 0;
        std::uint64_t len = 0;
        if (!body.getU32(tag) || !body.getU64(len) ||
            !body.getU32(crc) || len > body.remaining())
            return corrupt("truncated snapshot section");
        Section section;
        section.tag = tag;
        section.size = static_cast<std::size_t>(len);
        section.data = bytes.data() +
                       (bytes.size() - body.remaining());
        if (crc32(section.data, section.size) != crc) {
            return corrupt(
                "section checksum mismatch (corrupt snapshot)");
        }
        if (!body.skip(section.size))
            return corrupt("truncated snapshot section");
        parsed.push_back(section);
    }
    if (!body.atEnd())
        return corrupt("trailing bytes after last section");

    if (parsed[0].tag != kSectionMeta)
        return corrupt("first section is not META");
    ByteSource meta_src(parsed[0].data, parsed[0].size);
    SnapshotMeta decoded;
    std::int32_t threads = 0, locks = 0, vars = 0;
    std::uint64_t events = 0, consumer_count = 0;
    if (!meta_src.getU64(decoded.position) ||
        !meta_src.getI32(threads) || !meta_src.getI32(locks) ||
        !meta_src.getI32(vars) || !meta_src.getU64(events) ||
        !meta_src.getU64(consumer_count) || !meta_src.atEnd())
        return corrupt("malformed META section");
    if (threads < 0 || locks < 0 || vars < 0)
        return corrupt("malformed META section");
    decoded.info.threads = threads;
    decoded.info.locks = locks;
    decoded.info.vars = vars;
    decoded.info.events = events;
    if (consumer_count != parsed.size() - 1)
        return corrupt("consumer count does not match sections");

    std::vector<Section> consumers;
    for (std::size_t s = 1; s < parsed.size(); s++) {
        if (parsed[s].tag != kSectionConsumer)
            return corrupt("unexpected section tag");
        ByteSource name_src(parsed[s].data, parsed[s].size);
        std::string name;
        if (!name_src.getString(name))
            return corrupt("malformed consumer section");
        decoded.consumers.push_back(std::move(name));
        consumers.push_back(parsed[s]);
    }
    if (meta)
        *meta = std::move(decoded);
    if (sections)
        *sections = std::move(consumers);
    return true;
}

void
pruneSnapshots(const std::string &dir, const std::string &base,
               std::size_t keep)
{
    if (keep == 0)
        return;
    const std::vector<std::string> all = listSnapshots(dir, base);
    for (std::size_t i = keep; i < all.size(); i++)
        std::remove(all[i].c_str());
}

/**
 * Budgeted view of @p inner: delivers at most @p limit events,
 * then reports end of stream — the segment unit of a checkpointed
 * drain. Errors of the inner source are mirrored so callers can
 * keep checking the decorated stream.
 */
class LimitedSource final : public EventSource
{
  public:
    LimitedSource(EventSource &inner, std::uint64_t limit)
        : inner_(inner), limit_(limit)
    {}

    SourceInfo info() const override { return inner_.info(); }

    std::size_t
    read(Event *out, std::size_t max) override
    {
        max = static_cast<std::size_t>(std::min<std::uint64_t>(
            max, limit_ - delivered_));
        const std::size_t n = inner_.read(out, max);
        delivered_ += n;
        if (n == 0)
            mirrorError();
        return n;
    }

    bool rewind() override { return false; }

    std::uint64_t delivered() const { return delivered_; }

  private:
    void
    mirrorError()
    {
        if (inner_.failed() && !failed()) {
            fail(inner_.errorLine(), inner_.error(),
                 inner_.errorKind());
        }
    }

    EventSource &inner_;
    std::uint64_t limit_;
    std::uint64_t delivered_ = 0;
};

} // namespace

std::string
snapshotFileName(const std::string &base, std::uint64_t position)
{
    return strFormat("%s.%020llu.tcsnap", base.c_str(),
                     static_cast<unsigned long long>(position));
}

bool
isSnapshotPath(const std::string &path)
{
    static const std::string ext = ".tcsnap";
    return path.size() > ext.size() &&
           path.compare(path.size() - ext.size(), ext.size(),
                        ext) == 0;
}

bool
writeSnapshot(const std::string &path,
              const AnalysisPipeline &pipeline,
              std::uint64_t position, const SourceInfo &info,
              std::string *error)
{
    // Build the whole container in memory, finalized flag 0.
    ByteSink image;
    image.putBytes(kSnapMagic, sizeof(kSnapMagic));
    image.putU32(kSnapshotVersion);
    image.putU8(0); // not finalized yet
    image.putU32(
        static_cast<std::uint32_t>(1 + pipeline.size()));

    ByteSink meta;
    meta.putU64(position);
    meta.putI32(info.threads);
    meta.putI32(info.locks);
    meta.putI32(info.vars);
    meta.putU64(info.events);
    meta.putU64(pipeline.size());
    appendSection(image, kSectionMeta, meta);

    for (std::size_t i = 0; i < pipeline.size(); i++) {
        ByteSink state;
        state.putString(pipeline.consumer(i).name());
        pipeline.consumer(i).saveState(state);
        appendSection(image, kSectionConsumer, state);
    }

    const std::string tmp = path + ".tmp";
    if (const FaultDecision f = failpoint("snapshot.open")) {
        if (f.action == FaultAction::Crash)
            faultCrash("snapshot.open");
        setError(error, "snapshot open: injected I/O error");
        return false;
    }
    const int fd = ::open(tmp.c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
        setError(error, strFormat("cannot create '%s': %s",
                                  tmp.c_str(),
                                  std::strerror(errno)));
        return false;
    }
    const auto abandon = [&](bool close_fd) {
        if (close_fd)
            ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    };

    if (!writeAll(fd, image.bytes().data(), image.size(), error))
        return abandon(true);

    // Patch the finalized sentinel in place, then make everything
    // durable before the rename publishes the file.
    if (const FaultDecision f = failpoint("snapshot.finalize")) {
        if (f.action == FaultAction::Crash)
            faultCrash("snapshot.finalize");
        setError(error, "snapshot finalize: injected I/O error");
        return abandon(true);
    }
    const std::uint8_t one = 1;
    if (::pwrite(fd, &one, 1,
                 static_cast<off_t>(kFinalizedOffset)) != 1) {
        setError(error, strFormat("snapshot finalize failed: %s",
                                  std::strerror(errno)));
        return abandon(true);
    }
    if (const FaultDecision f = failpoint("snapshot.fsync")) {
        if (f.action == FaultAction::Crash)
            faultCrash("snapshot.fsync");
        setError(error, "snapshot fsync: injected I/O error");
        return abandon(true);
    }
    if (::fsync(fd) != 0) {
        setError(error, strFormat("snapshot fsync failed: %s",
                                  std::strerror(errno)));
        return abandon(true);
    }
    if (::close(fd) != 0) {
        setError(error, strFormat("snapshot close failed: %s",
                                  std::strerror(errno)));
        return abandon(false);
    }

    if (const FaultDecision f = failpoint("snapshot.rename")) {
        if (f.action == FaultAction::Crash)
            faultCrash("snapshot.rename");
        setError(error, "snapshot rename: injected I/O error");
        return abandon(false);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, strFormat("snapshot rename failed: %s",
                                  std::strerror(errno)));
        return abandon(false);
    }

    // Best-effort directory durability for the rename itself.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
        (void)::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

bool
readSnapshotMeta(const std::string &path, SnapshotMeta *meta,
                 std::string *error)
{
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes, error))
        return false;
    return parseSnapshot(path, bytes, meta, nullptr, error);
}

bool
loadSnapshot(const std::string &path, AnalysisPipeline &pipeline,
             SnapshotMeta *meta, std::string *error)
{
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes, error))
        return false;
    SnapshotMeta decoded;
    std::vector<Section> sections;
    if (!parseSnapshot(path, bytes, &decoded, &sections, error))
        return false;

    if (decoded.consumers.size() != pipeline.size()) {
        setError(error,
                 strFormat("%s: snapshot has %zu consumers, "
                           "pipeline has %zu",
                           path.c_str(),
                           decoded.consumers.size(),
                           pipeline.size()));
        return false;
    }
    for (std::size_t i = 0; i < pipeline.size(); i++) {
        if (decoded.consumers[i] != pipeline.consumer(i).name()) {
            setError(
                error,
                strFormat("%s: consumer %zu is '%s' in the "
                          "snapshot but '%s' in the pipeline",
                          path.c_str(), i,
                          decoded.consumers[i].c_str(),
                          pipeline.consumer(i).name().c_str()));
            return false;
        }
    }

    pipeline.beginAll(decoded.info);
    for (std::size_t i = 0; i < sections.size(); i++) {
        ByteSource state(sections[i].data, sections[i].size);
        std::string name;
        if (!state.getString(name) ||
            !pipeline.consumer(i).restoreState(state) ||
            !state.atEnd() || !state.ok()) {
            setError(error,
                     strFormat("%s: consumer '%s' state failed "
                               "to restore (corrupt snapshot)",
                               path.c_str(),
                               pipeline.consumer(i).name()
                                   .c_str()));
            return false;
        }
    }
    if (meta)
        *meta = std::move(decoded);
    return true;
}

std::vector<std::string>
listSnapshots(const std::string &dir, const std::string &base)
{
    std::vector<std::pair<std::uint64_t, std::string>> found;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return {};
    const std::string prefix = base + ".";
    const std::string ext = ".tcsnap";
    while (const dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() <= prefix.size() + ext.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - ext.size(), ext.size(),
                         ext) != 0)
            continue;
        const std::string digits =
            name.substr(prefix.size(), name.size() -
                                           prefix.size() -
                                           ext.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            continue;
        char *end = nullptr;
        const std::uint64_t position =
            std::strtoull(digits.c_str(), &end, 10);
        if (end == nullptr || *end != '\0')
            continue;
        found.emplace_back(position, dir + "/" + name);
    }
    ::closedir(d);
    std::sort(found.begin(), found.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    std::vector<std::string> out;
    out.reserve(found.size());
    for (auto &[position, path] : found)
        out.push_back(std::move(path));
    return out;
}

bool
resumeFromDir(const std::string &dir, const std::string &base,
              const std::string &snapshot,
              AnalysisPipeline &pipeline, ResumeResult *out,
              std::string *error)
{
    ResumeResult result;
    if (!snapshot.empty()) {
        // Explicit snapshot: no fallback, failure is hard.
        SnapshotMeta meta;
        if (!loadSnapshot(snapshot, pipeline, &meta, error))
            return false;
        result.resumed = true;
        result.path = snapshot;
        result.position = meta.position;
        if (out)
            *out = std::move(result);
        return true;
    }
    for (const std::string &candidate :
         listSnapshots(dir, base)) {
        SnapshotMeta meta;
        std::string why;
        if (loadSnapshot(candidate, pipeline, &meta, &why)) {
            result.resumed = true;
            result.path = candidate;
            result.position = meta.position;
            break;
        }
        // Corrupt or incompatible: fall back to the next-newest
        // snapshot, loudly.
        result.diagnostics.push_back(why);
    }
    if (out)
        *out = std::move(result);
    return true;
}

bool
runWithCheckpoints(AnalysisPipeline &pipeline, EventSource &source,
                   std::uint64_t start_position,
                   const CheckpointOptions &options,
                   std::vector<AnalysisReport> *reports,
                   std::string *error)
{
    const SourceInfo si = source.info();
    const bool checkpointing =
        options.every > 0 && !options.dir.empty();
    if (checkpointing) {
        // Single-level best effort; an unusable directory shows up
        // as a write failure on the first checkpoint.
        ::mkdir(options.dir.c_str(), 0755);
    }
    std::uint64_t position = start_position;
    std::vector<AnalysisReport> result;
    for (;;) {
        const std::uint64_t budget =
            checkpointing ? options.every : kUnknownEventCount;
        LimitedSource segment(source, budget);
        result = options.parallel.workers > 0
                     ? pipeline.drainParallel(segment,
                                              options.parallel)
                     : pipeline.drain(segment);
        position += segment.delivered();
        if (source.failed() || segment.delivered() < budget)
            break;
        // Segment boundary: every consumer has consumed exactly
        // `position` events (the parallel drain joins its workers
        // before returning), so the snapshot is consistent.
        const std::string path =
            options.dir + "/" +
            snapshotFileName(options.base, position);
        if (!writeSnapshot(path, pipeline, position, si, error)) {
            if (reports)
                *reports = std::move(result);
            return false;
        }
        pruneSnapshots(options.dir, options.base, options.keep);
    }
    if (reports)
        *reports = std::move(result);
    return true;
}

} // namespace tc
