#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a small fraction of its size,
untraced and traced, and checks that each run exits 0 and that its last
output line has the schema BENCHMARK.json promises: exactly the keys
correct, attempted, failed and metrics, and exactly the end-to-end
(untraced) or per-layer (traced) metrics, each with its declared unit.
The verdict is printed, not required: at this size the Theorem 1 guard
fails on the 128- and 224-thread corpus entries, whose few events per
thread leave the tree clocks' set-up work unamortized.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.01"


def check_run(workload, trace, expected):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()}"], ""
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    verdict = (f"correct={result.get('correct')} "
               f"failed={result.get('failed')}/{result.get('attempted')}")
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        errors.append(f"attempted={attempted}")
    if not isinstance(failed, int) or not 0 <= failed <= attempted:
        errors.append(f"failed={failed}")
    if not isinstance(result.get("correct"), bool):
        errors.append(f"correct={result.get('correct')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metrics missing {missing} extra {extra}")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(metric)}")
        elif not isinstance(metric["value"], (int, float)):
            errors.append(f"{name}: value {metric['value']!r}")
        elif name in expected and metric["unit"] != expected[name]:
            errors.append(f"{name}: unit {metric['unit']}")
    return errors, verdict


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[section]}
            errors, verdict = check_run(workload["name"], trace, expected)
            status = "ok" if not errors else "FAIL"
            print(f"{status}  {workload['name']} --trace {trace}  {verdict}")
            for error in errors:
                print(f"      {error}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
