/**
 * @file
 * Sharded trace capture: per-thread shard files that K-way-merge
 * back into the canonical total order.
 *
 * A production tracer wants one log per capturing thread (no global
 * lock on the event log), but every analysis in this repository
 * consumes the one total order the execution actually had. The shard
 * format keeps both: `split` routes each event to the shard file of
 * its thread (tid mod K) and stamps it with its *global* sequence
 * number, so a later K-way merge on those sequence numbers restores
 * the original interleaving exactly.
 *
 * Shard set on disk: `<prefix>.0.tcs`, ..., `<prefix>.K-1.tcs`.
 * Every shard header carries the shard count, so any one member
 * names the whole set. Shard records are strictly increasing in
 * sequence number within a shard; across the set the numbers are the
 * events' positions in the captured total order (they need not be
 * dense — merging a projection of a set is well defined).
 *
 * Layers on top:
 *  - ShardWriter      — K shard files behind one append(): event i
 *                       gets stamp i and goes to shard tid mod K,
 *                       through one staging buffer per shard, and
 *                       the sentinel-until-finalized header rejects
 *                       torn captures.
 *  - splitTraceStream — drain a stream into a shard set on the
 *                       calling thread (the writer's one caller).
 *  - openShardSet     — merge the set back into the total order on
 *                       the calling thread (loser tree over the K
 *                       shard heads).
 *  - trace_tool split/convert — the CLI over all of it (convert
 *                       reads a set through any of its members).
 */

#ifndef TC_TRACE_SHARD_HH
#define TC_TRACE_SHARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/event_source.hh"
#include "trace/trace.hh"

namespace tc {

/** Default shard count of `trace_tool split` (capturing threads on
 * a typical production host, not a correctness knob). */
inline constexpr std::uint32_t kDefaultShardCount = 4;

/** Hard ceiling on a shard set's size, enforced by writers and —
 * more importantly — by readers before anything trusts the
 * header's count field: a corrupt or hostile `.tcs` claiming four
 * billion shards must be rejected up front, not after the tools
 * materialized four billion path strings. Far above any real
 * capture (shards ≈ capture threads). */
inline constexpr std::uint32_t kMaxShardSetCount = 4096;

/** Path of shard @p index of the set named by @p prefix. */
std::string shardPath(const std::string &prefix,
                      std::uint32_t index);

/** True when @p path carries the shard-set extension (`.tcs`) —
 * the one predicate behind every extension dispatch, so readers
 * and writers cannot disagree on what counts as a shard file. */
bool isShardPath(const std::string &path);

/** True when @p path names a shard-set member (`<prefix>.<i>.tcs`);
 * on success @p prefix and @p index receive the decomposition. */
bool parseShardPath(const std::string &path, std::string &prefix,
                    std::uint32_t &index);

/** Shard count declared by shard 0 of the set at @p prefix, or 0
 * when that header is missing or unreadable. Lets tools enumerate
 * the set's member files (e.g. for overwrite guards) without
 * opening the whole set. */
std::uint32_t shardSetCount(const std::string &prefix);

/**
 * Capture side of the shard format: K shard files, written through
 * one append() that stamps each event with the count written before
 * it and routes it to shard tid mod K. Each shard stages its records
 * in one buffer, which goes to the file in one write() per 256 KiB
 * and at finalize(). Headers carry sentinel counts until finalize()
 * patches in the real ones — a writer that is destroyed without a
 * successful finalize() leaves the sentinel behind, which readers
 * reject, so a crashed capture can not be mistaken for a (possibly
 * empty) complete one.
 *
 * Threading contract: single-threaded; nothing in it is
 * synchronized.
 */
class ShardWriter
{
  public:
    /** Open `<prefix>.<i>.tcs` for i in [0, shards) with sentinel
     * headers; id-space bounds come from @p info (the event count
     * is ignored — the writer counts for itself). Check failed()
     * before appending. */
    ShardWriter(const std::string &prefix, std::uint32_t shards,
                const SourceInfo &info);
    ~ShardWriter();

    ShardWriter(const ShardWriter &) = delete;
    ShardWriter &operator=(const ShardWriter &) = delete;

    /** Stamp @p e with eventsWritten() and stage it for shard
     * tid mod K. Evaluates the "shard.append" failpoint, and
     * "shard.flush" when the shard's buffer goes to its file. False
     * once the writer failed (error()), and after finalize(). */
    bool append(const Event &e);

    /**
     * Write every staged record, then patch every shard header with
     * the final counts. Returns false when the writer failed or a
     * write or header patch failed; the files then keep their
     * sentinel (torn) headers.
     */
    bool finalize();

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    /** Records appended across all shards. */
    std::uint64_t eventsWritten() const { return events_; }
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

  private:
    struct Shard
    {
        int fd = -1;
        /** Records staged since the last write to the file. */
        std::vector<unsigned char> staged;
        std::uint64_t events = 0;
    };

    /** Write @p s's staged records to its file. Evaluates
     * "shard.flush". */
    bool flush(Shard &s);
    void fail(std::string message);

    std::vector<Shard> shards_;
    std::uint64_t events_ = 0;
    bool failed_ = false;
    bool finalized_ = false;
    std::string error_;
};

/**
 * Drain @p source into a K-shard set at @p prefix on the calling
 * thread (sharding or re-sharding an existing trace): event i gets
 * sequence number i and goes to shard tid mod K.
 * Returns the number of events written, or kUnknownEventCount on
 * failure (check source.failed() to tell a reader error from a
 * writer error). A failed split removes the shards it created.
 */
std::uint64_t splitTraceStream(EventSource &source,
                               const std::string &prefix,
                               std::uint32_t shards,
                               std::string *error = nullptr);

/**
 * Open the shard set named by @p prefix as one EventSource that
 * yields the canonical total order (a K-way merge on global
 * sequence numbers through a loser tree, O(log K) per event). Each
 * underlying reader holds at most @p window records in memory.
 * Never null; open/header/consistency failures surface through the
 * failed() state.
 */
std::unique_ptr<EventSource>
openShardSet(const std::string &prefix,
             std::size_t window = kDefaultSourceWindow);

/**
 * Open the shard set that member file @p path belongs to (the
 * `openTraceFile` path for `.tcs` inputs). Fails when @p path does
 * not parse as `<prefix>.<index>.tcs` or when its index lies outside
 * the set declared by the headers — a stale member from an earlier,
 * wider split must not silently open a set that excludes it.
 */
std::unique_ptr<EventSource>
openShardMember(const std::string &path,
                std::size_t window = kDefaultSourceWindow);

} // namespace tc

#endif // TC_TRACE_SHARD_HH
