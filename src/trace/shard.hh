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
 *  - ShardWriter      — K shard files, one buffered Appender each;
 *                       the caller stamps every record's sequence
 *                       number (appendStamped), and the sentinel-
 *                       until-finalized header rejects torn
 *                       captures.
 *  - splitTraceStream — drain a stream into a shard set on the
 *                       calling thread (its only writer).
 *  - openShardSet     — merge the set back into the total order on
 *                       the calling thread (loser tree over the K
 *                       shard heads).
 *  - trace_tool split/merge — the CLI over all of it.
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
 * Capture side of the shard format: K shard files, one Appender
 * each, every record stamped with its global sequence number.
 * Headers carry sentinel counts until finalize() patches in the
 * real ones — a writer that is destroyed without a successful
 * finalize() leaves the sentinel behind, which readers reject, so a
 * crashed capture can not be mistaken for a (possibly empty)
 * complete one.
 *
 * Threading contract: single-threaded. A writer and its appenders
 * belong to one thread, which stamps every record itself
 * (splitTraceStream stamps event i with i); nothing in them is
 * synchronized. A
 * capture that dies before finalize() — or any of its appenders
 * failing — leaves torn shards every reader rejects.
 */
class ShardWriter
{
  public:
    /** The writer's handle on one shard file. */
    class Appender
    {
      public:
        /** Buffer @p e under a caller-assigned sequence number. The
         * caller must keep per-shard numbers strictly increasing —
         * readers reject anything else. Evaluates the
         * "shard.append" failpoint. */
        bool appendStamped(std::uint64_t seq, const Event &e);

        /** Push staged records to the file in one gathered
         * writev(). appendStamped() flushes automatically once a
         * full batch of segments is staged; finalize() flushes every
         * appender a last time. Evaluates "shard.flush". */
        bool flush();

        bool failed() const { return failed_; }
        const std::string &error() const { return error_; }
        std::uint64_t eventsWritten() const { return events_; }

        ~Appender();
        Appender(const Appender &) = delete;
        Appender &operator=(const Appender &) = delete;

      private:
        friend class ShardWriter;
        Appender() = default;

        /** The write half of flush(), without its failpoint. */
        bool writeStaged();
        void fail(std::string message);

        int fd_ = -1;
        /** Staging segments: appends memcpy into segs_[active_]; a
         * full segment advances active_, and a full set of segments
         * goes to the file as one writev() — one syscall per batch,
         * cache-sized copies per record. */
        std::vector<std::vector<unsigned char>> segs_;
        std::size_t active_ = 0;
        const bool *finalized_ = nullptr;
        std::uint64_t events_ = 0;
        bool failed_ = false;
        std::string error_;
    };

    /** Open `<prefix>.<i>.tcs` for i in [0, shards) with sentinel
     * headers; id-space bounds come from @p info (the event count
     * is ignored — the writer counts for itself). Check failed()
     * before handing out appenders. */
    ShardWriter(const std::string &prefix, std::uint32_t shards,
                const SourceInfo &info);
    ~ShardWriter();

    ShardWriter(const ShardWriter &) = delete;
    ShardWriter &operator=(const ShardWriter &) = delete;

    /** Shard @p shard's appender. */
    Appender &appender(std::uint32_t shard);

    /**
     * Patch every shard header with the final counts and flush.
     * Returns false when any appender failed or a header patch
     * failed; the files then keep their sentinel (torn) headers.
     */
    bool finalize();

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    /** Total records buffered across all appenders. */
    std::uint64_t eventsWritten() const;
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(appenders_.size());
    }

  private:
    std::vector<std::unique_ptr<Appender>> appenders_;
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
