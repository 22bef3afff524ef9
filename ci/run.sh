#!/usr/bin/env bash
# CI entry point: the tier-1 cmake+ctest flow under three build
# configurations, then deep crash-recovery sweeps.
#
#   Job 1 — Release with -Werror: the measured configuration must
#           build warning-clean; the fuzz, crash and reader suites
#           then rerun under a 4 GiB address-space limit (ulimit -v),
#           and perfbench/selftest.py builds the benchmark's own
#           CMake tree (its programs call into src/ too) and checks
#           every workload's output schema at tiny scale.
#   Job 2 — ASan + UBSan: the full test suite under both sanitizers
#           (catches scratch-arena lifetime bugs, OOB node-record
#           indexing, signed overflow in the traversals and the
#           tree clock's parent tags, and leaks on the pipeline
#           fault paths). TC_SANITIZE makes every UBSan report fail
#           its test (-fno-sanitize-recover=undefined) and turns on
#           _GLIBCXX_ASSERTIONS, so each container index is
#           bounds-checked, and TC_ENABLE_ASSERTS, so every TC_ASSERT
#           invariant check runs although the build defines NDEBUG.
#           Like job 1 it includes test_engine_allocs, the exact
#           allocation checks.
#   Job 3 — TSan: the `threaded` ctest label — every suite that
#           runs the fan-out's worker pool or its window-bus ring,
#           the only threads src/ starts, plus the scratch-arena
#           regression — under ThreadSanitizer; then the lane
#           scheduler's suites (test_window_bus, test_pipeline)
#           again at TC_TEST_DEPTH=3, so their randomized sweeps
#           cover more hand-off interleavings.
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
#           the flags the docs spell exist in the CLIs (and every
#           user-facing flag is documented), and every .md file a
#           source comment cites exists. Runs first: it needs no
#           build and catches drift in seconds.
#
# Performance is not gated here: perfbench/run.py (BENCHMARK.json)
# compares a change against its parent on one host.
#
# Usage: ci/run.sh [jobs]   (defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

# Docs gate first: link, flag-drift and cited-document checking
# needs no build, so stale docs fail in seconds, before any compile.
echo "=== docs gate (links + flag drift + cited docs) ==="
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

# The fuzz, crash, CLI-boundary and .tcb/.tcs reader suites again,
# under a 4 GiB address-space limit: an allocation sized by a
# corrupt header then fails the same way on every box, instead of
# passing wherever overcommit hides it. Release only — ASan reserves far more
# address space than the limit allows. The subshell keeps the limit
# away from the jobs below.
echo "=== fuzz/crash/reader suites under a 4 GiB address-space limit ==="
(
    ulimit -v 4194304
    ctest --test-dir build-ci-werror --output-on-failure -j "${JOBS}" \
        -R 'test_(snapshot_fuzz|crash_recovery|format_compat|cli_diagnostics|event_source|shard|trace_io)$'
)
# The benchmark compiles the repository's sources in its own CMake
# tree (.bench_build/), outside the builds above: a change that
# breaks it would otherwise surface only when the benchmark runs.
echo "=== benchmark build + self-test ==="
python3 perfbench/selftest.py

run_job "ASan/UBSan" build-ci-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTC_WERROR=ON \
    -DTC_SANITIZE=ON

echo "=== TSan (threaded label) ==="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTC_WERROR=ON -DTC_TSAN=ON
cmake --build build-ci-tsan -j "${JOBS}" --target threaded_tests
ctest --test-dir build-ci-tsan --output-on-failure -j "${JOBS}" \
    -L threaded
# More (window, depth, workers) draws and more windows per worker
# count: more interleavings of the lane scheduler under TSan.
TC_TEST_DEPTH=3 ctest --test-dir build-ci-tsan --output-on-failure \
    -j "${JOBS}" -R 'test_(window_bus|pipeline)$'

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

echo "=== CI OK ==="
