#!/usr/bin/env bash
# CI entry point: the tier-1 cmake+ctest flow under three build
# configurations, then a bench smoke job.
#
#   Job 1 — Release with -Werror: the measured configuration must
#           build warning-clean.
#   Job 2 — ASan + UBSan: the full test suite under both sanitizers
#           (catches scratch-arena lifetime bugs, OOB link-array
#           indexing, signed-overflow in the traversals, and leaks
#           on the pipeline fault paths).
#   Job 3 — TSan: the `threaded` ctest label — every suite that
#           spawns threads (prefetch reader, window-bus ring,
#           pipeline worker pool, concurrent capture appenders,
#           scratch-arena regression) — under ThreadSanitizer.
#           CMakeLists.txt owns the list
#           (TC_THREADED_TESTS), so new threaded suites are covered
#           by adding them there, not by editing CI regexes. Scoped
#           because the rest of the codebase is single-threaded and
#           TSan slows it ~10x for no additional coverage.
#   Job 4 — crash recovery: the kill-at-random-failpoint,
#           corrupt-snapshot fallback and byte-flip fuzz sweeps at
#           extra depth (TC_TEST_DEPTH), reusing the ASan build so
#           every recovery path runs sanitized. The suites also run
#           at depth 1 inside jobs 1–2; this job buys the deep
#           randomized sweeps without slowing the whole matrix.
#   Job 0 — docs gate: internal links in docs/ + README resolve,
#           and the flags the docs spell exist in the CLIs (and
#           every user-facing flag is documented). Runs first: it
#           needs no build and catches drift in seconds.
#   Job 5 — bench smoke: allocation regressions (exact) and
#           streaming/fan-out throughput regressions (25%
#           tolerance) against the committed BENCH_baseline.json,
#           plus the checkpoint-overhead gate: snapshots every 1M
#           events may cost at most 5% of streaming throughput
#           (same-binary on/off comparison, so it runs tight even
#           where the cross-machine gate cannot).
#
# Usage: ci/run.sh [jobs]   (defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

# Docs gate first: link and flag-drift checking needs no build, so
# a stale docs/ tree fails in seconds, before any compile.
echo "=== docs gate (links + flag drift) ==="
python3 ci/check_docs.py

run_job() {
    local name="$1" build_dir="$2"
    shift 2
    echo "=== ${name} ==="
    cmake -B "${build_dir}" -S . "$@"
    cmake --build "${build_dir}" -j "${JOBS}"
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

run_job "Release -Werror" build-ci-werror \
    -DCMAKE_BUILD_TYPE=Release -DTC_WERROR=ON
run_job "ASan/UBSan" build-ci-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTC_WERROR=ON \
    -DTC_SANITIZE=ON

echo "=== TSan (threaded label) ==="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTC_WERROR=ON -DTC_TSAN=ON
cmake --build build-ci-tsan -j "${JOBS}" --target threaded_tests
ctest --test-dir build-ci-tsan --output-on-failure -j "${JOBS}" \
    -L threaded

# Job 4 — crash recovery, deep. The randomized kill/corruption
# sweeps scale their iteration counts by TC_TEST_DEPTH; rerunning
# just these suites from the ASan build multiplies the sampled
# (failpoint, hit) space while everything stays sanitized. The
# regex names test *suites* (executables), so new fault tests are
# picked up by the tests/test_*.cc glob as usual.
echo "=== crash recovery (deep fault sweeps, ASan) ==="
TC_TEST_DEPTH="${TC_CRASH_DEPTH:-3}" ctest \
    --test-dir build-ci-asan --output-on-failure -j "${JOBS}" \
    -R 'test_(crash_recovery|fault_injection|snapshot|snapshot_differential|snapshot_fuzz|cli_diagnostics|clock_roundtrip)$'

# Job 5 — bench smoke. Two gates against BENCH_baseline.json:
#  * allocations (exact): the steady-state join/copy
#    micro-benchmarks must stay allocation-free and no benchmark
#    may allocate more than the baseline (counts are
#    deterministic);
#  * throughput (25% tolerance): bench_streaming events/s — the
#    streaming modes, the shard merge, the fan-out cross product
#    and the decode_io drains (mmap vs stream) — must not
#    collapse; the loose threshold absorbs machine noise while
#    catching a serialized pool, a re-introduced copy, or a decoder
#    that fell off its batched path. (Nightly additionally gates
#    tighter against a per-runner floor baseline; see nightly.yml
#    + ci/update_runner_baseline.py.)
# Both reports are merged into one document with merge_bench_json
# (the same layout as the committed baseline) so the checkers diff
# key by key. bench_micro_clock is skipped when google-benchmark
# was not found at configure time.
echo "=== bench smoke (alloc + throughput regressions) ==="
# Same workload the committed baseline was generated with (events,
# po) — throughput entries only compare meaningfully like-for-like.
./build-ci-werror/bench_streaming --events=2000000 --po=shb \
    --reps=2 --json=/tmp/tc-bench-streaming.json > /dev/null
if [[ -x build-ci-werror/bench_micro_clock ]]; then
    ./build-ci-werror/bench_micro_clock \
        --benchmark_filter='BM_JoinVacuous|BM_SyncRoundTrip|BM_MonotoneCopy' \
        --json /tmp/tc-bench-micro.json > /dev/null
    python3 ci/merge_bench_json.py /tmp/tc-bench-ci.json \
        bench_micro_clock=/tmp/tc-bench-micro.json \
        bench_streaming=/tmp/tc-bench-streaming.json
    python3 ci/check_alloc_regressions.py BENCH_baseline.json \
        /tmp/tc-bench-ci.json
else
    echo "--- alloc gate skipped (no google-benchmark) ---"
    python3 ci/merge_bench_json.py /tmp/tc-bench-ci.json \
        bench_streaming=/tmp/tc-bench-streaming.json
fi
# TC_THROUGHPUT_TOLERANCE widens the gate for hosts that differ
# structurally from the baseline machine (the committed baseline is
# floored over several runs on the reference box; see ROADMAP).
python3 ci/check_throughput_regressions.py BENCH_baseline.json \
    /tmp/tc-bench-ci.json \
    --tolerance="${TC_THROUGHPUT_TOLERANCE:-0.25}"

# Lifecycle footprint gate: on the pool workload (bounded live set,
# many created-and-retired logical threads) the tree clock's peak
# resident clock bytes must stay strictly below the vector clock's,
# and 10x the logical threads must not grow the TC peak (slot
# recycling bounds it by the live set). Same-process comparison,
# so no cross-machine tolerance is needed.
echo "=== lifecycle footprint gate (TC bounded by live set) ==="
python3 ci/check_lifecycle_footprint.py /tmp/tc-bench-streaming.json

# Checkpoint-overhead gate: snapshots every 1M events must cost
# ≤5% of streaming throughput. This compares the same binary
# against itself (checkpoint_on vs checkpoint_off in one process),
# so no cross-machine slack is needed; TC_CHECKPOINT_OVERHEAD
# widens it for badly oversubscribed hosts.
echo "=== checkpoint overhead gate (<= 5% at 1M cadence) ==="
./build-ci-werror/bench_streaming --events=2000000 --po=shb \
    --reps=3 --mode=checkpoint_overhead \
    --checkpoint-every=1000000 \
    --json=/tmp/tc-bench-checkpoint.json > /dev/null
python3 ci/check_checkpoint_overhead.py \
    /tmp/tc-bench-checkpoint.json \
    --max-overhead="${TC_CHECKPOINT_OVERHEAD:-0.05}"

echo "=== CI OK ==="
