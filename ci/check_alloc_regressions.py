#!/usr/bin/env python3
"""Fail when clock operations or whole analyses started allocating.

Usage:
    ci/check_alloc_regressions.py BENCH_baseline.json current.json

`current.json` is a bench_micro_clock or bench_streaming --json
report (either raw harness output or a BENCH_baseline.json-style
merged document). For every benchmark present in both current and
the baseline's bench_micro_clock or bench_streaming section, the
current heap_allocs count must not exceed the baseline's. The
steady-state join/copy benchmarks (BM_JoinVacuous /
BM_SyncRoundTrip / BM_MonotoneCopy) are additionally required to
stay at exactly 0 allocations — a warmed clock hot path must never
touch the heap, whatever the baseline says.

The bench_streaming entries (batch/* and trace_source/*) count
every allocation of one whole engine run, clock bank and
per-variable clocks included, so the gate also covers the engines:
a clock that goes back to several heap arrays, or a new
per-event allocation, fails it.

Timing metrics are deliberately ignored: allocation counts are
deterministic, wall times are not.
"""

import json
import sys

STEADY_STATE_PREFIXES = (
    "BM_JoinVacuous",
    "BM_SyncRoundTrip",
    "BM_MonotoneCopy",
)


HARNESSES = ("bench_micro_clock", "bench_streaming")


def entries(report: dict) -> dict:
    """name -> heap_allocs over a harness report or merged document."""
    sections = [report[h] for h in HARNESSES if h in report]
    return {
        b["name"]: b["heap_allocs"]
        for section in sections or [report]
        for b in section.get("benchmarks", [])
        if "heap_allocs" in b
    }


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = entries(json.load(f))
    with open(sys.argv[2]) as f:
        current = entries(json.load(f))
    if not current:
        print("error: current report has no heap_allocs counters",
              file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for name, allocs in sorted(current.items()):
        if name.startswith(STEADY_STATE_PREFIXES) and allocs != 0:
            failures.append(
                f"{name}: steady-state loop performed "
                f"{allocs:.0f} heap allocations (must be 0)")
        base = baseline.get(name)
        if base is None:
            continue
        compared += 1
        if allocs > base:
            failures.append(
                f"{name}: heap_allocs {allocs:.0f} > baseline "
                f"{base:.0f}")

    if failures:
        print("allocation regressions detected:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"alloc check OK: {len(current)} benchmarks, "
          f"{compared} compared against baseline, 0 regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
