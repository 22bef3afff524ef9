/**
 * @file
 * Crash-safe checkpoint snapshots of a running analysis.
 *
 * A `.tcsnap` file is a versioned, section-checksummed container
 * holding the complete state of an AnalysisPipeline at one stream
 * position: for every consumer, the driver's clock bank, local
 * times, lock states, per-variable policy state, race summary and
 * work counters (AnalysisDriver::saveState), plus a meta section
 * with the global sequence number (events consumed) and the
 * stream's declared id spaces.
 *
 * Layout:
 *
 *     "TCSNAP1\0"  magic, 8 bytes
 *     u32          format version (kSnapshotVersion)
 *     u8           finalized flag — 0 while writing, 1 patched in
 *                  before fsync (sentinel-until-finalized, like
 *                  .tcs shard headers)
 *     u32          section count
 *     sections:    [u32 tag][u64 payload len][u32 crc32][payload]
 *
 * The first section is META (position + SourceInfo + consumer
 * count); each following CONS section is one consumer's name plus
 * its opaque state blob. Every section is CRC32-checked on load,
 * so a corrupted snapshot is detected, never trusted.
 *
 * Durability: snapshots are written to `<path>.tmp`, the finalized
 * flag is patched in, the file is fsync'd, and only then renamed
 * over the final name (with a best-effort directory fsync). A
 * crash at any point — including every injected crash point of the
 * fault sweep — leaves either the previous snapshot set intact or
 * an unfinalized/absent temp file that the loader rejects; it can
 * never produce a new snapshot that loads but holds partial state.
 *
 * Recovery: resumeFromDir() walks the directory newest-first and
 * falls back across corrupt or incompatible snapshots (collecting
 * a diagnostic per skip) down to "no snapshot — start from event
 * zero". A checkpointed analysis therefore never returns a wrong
 * answer on a damaged snapshot directory; at worst it recomputes.
 */

#ifndef TC_TRACE_SNAPSHOT_HH
#define TC_TRACE_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/pipeline.hh"
#include "trace/event_source.hh"

namespace tc {

/** Current .tcsnap format version. v2 snapshots may hold driver
 * state blobs with dynamic-membership sections; the loader accepts
 * v1 (pre-lifecycle) snapshots unchanged. */
inline constexpr std::uint32_t kSnapshotVersion = 2;
/** Oldest version the loader still accepts. */
inline constexpr std::uint32_t kSnapshotVersionMin = 1;

/** Everything the meta section declares. */
struct SnapshotMeta
{
    /** Events consumed before this snapshot was taken (the global
     * sequence number to seekToSequence() on resume). */
    std::uint64_t position = 0;
    /** The analyzed stream's declared id spaces. */
    SourceInfo info;
    /** Consumer names, in pipeline order. */
    std::vector<std::string> consumers;
};

/** "<base>.<position>.tcsnap" (fixed-width position so the
 * lexicographic and numeric orders agree). */
std::string snapshotFileName(const std::string &base,
                             std::uint64_t position);

/** True for paths ending in ".tcsnap". */
bool isSnapshotPath(const std::string &path);

/**
 * Atomically write the pipeline's state to @p path (see the file
 * comment for the durability protocol). Fails — with a diagnostic
 * in @p error — on I/O errors after bounded retries of transient
 * ones.
 */
bool writeSnapshot(const std::string &path,
                   const AnalysisPipeline &pipeline,
                   std::uint64_t position, const SourceInfo &info,
                   std::string *error);

/** Validate @p path (magic, version, finalized flag, all section
 * checksums) and decode its meta section. */
bool readSnapshotMeta(const std::string &path, SnapshotMeta *meta,
                      std::string *error);

/**
 * Restore @p pipeline from @p path: validates like
 * readSnapshotMeta, requires the snapshot's consumer list to match
 * the pipeline's (same names, same order), then begin()s every
 * consumer for the recorded SourceInfo and restores its state. On
 * failure the pipeline must be begin()-ed (or restored) again
 * before use.
 */
bool loadSnapshot(const std::string &path,
                  AnalysisPipeline &pipeline, SnapshotMeta *meta,
                  std::string *error);

/** Snapshot files "<base>.*.tcsnap" under @p dir, newest (highest
 * position) first. Unparseable names are ignored. */
std::vector<std::string> listSnapshots(const std::string &dir,
                                       const std::string &base);

/** Outcome of a resume attempt. */
struct ResumeResult
{
    /** False when no usable snapshot existed (clean start). */
    bool resumed = false;
    /** The snapshot that loaded (empty when !resumed). */
    std::string path;
    std::uint64_t position = 0;
    /** One line per skipped (corrupt/incompatible) snapshot. */
    std::vector<std::string> diagnostics;
};

/**
 * Resume @p pipeline from the newest valid snapshot under @p dir
 * (or from exactly @p snapshot when non-empty — no fallback then).
 * Corrupt snapshots are skipped with a diagnostic, falling back to
 * older ones and finally to a clean start (resumed=false, still
 * success). Returns false only on hard errors (an explicitly named
 * snapshot that does not load).
 */
bool resumeFromDir(const std::string &dir, const std::string &base,
                   const std::string &snapshot,
                   AnalysisPipeline &pipeline, ResumeResult *out,
                   std::string *error);

/** Knobs of a checkpointed drain. */
struct CheckpointOptions
{
    /** Events between snapshots; 0 disables checkpointing. */
    std::uint64_t every = 0;
    std::string dir;
    std::string base = "snapshot";
    /** Newest snapshots retained; older ones are pruned after each
     * successful write. 0 keeps everything. */
    std::size_t keep = 3;
    /** Parallel fan-out (AnalysisPipeline::drainParallel) when
     * workers > 0; checkpoints then land on segment barriers so
     * all consumers are quiesced at one window boundary. */
    ParallelOptions parallel;
};

/**
 * Drain @p source — already positioned at @p start_position, with
 * consumers begin()-ed or snapshot-restored to match — through the
 * pipeline, writing a snapshot every CheckpointOptions::every
 * events at a window boundary where every consumer has seen
 * exactly the same prefix. @p reports receives the per-consumer
 * results of the consumed range. Returns false (diagnostic in
 * @p error) when a checkpoint cannot be written; a failing source
 * returns true with partial reports — check source.failed(), as
 * with the plain drains.
 */
bool runWithCheckpoints(AnalysisPipeline &pipeline,
                        EventSource &source,
                        std::uint64_t start_position,
                        const CheckpointOptions &options,
                        std::vector<AnalysisReport> *reports,
                        std::string *error);

} // namespace tc

#endif // TC_TRACE_SNAPSHOT_HH
