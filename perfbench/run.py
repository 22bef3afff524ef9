#!/usr/bin/env python3
"""The layered race_detector benchmark.

    python3 perfbench/run.py --workload corpus|ingest|fanout \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the repository's
race_detector and trace_tool, plus the benchmark's own helpers, into
.bench_build/ (perfbench/CMakeLists.txt). Every run then writes its
workload's traces from --seed and measures.

--trace 0 measures end to end: the real CLIs, one process per run, in
passes until --seconds is used up. Each metric is the median over
passes. --trace 1 is the traced run: perfbench_layers times each
layer in-process, and one CLI pass checks that it agrees with
race_detector. Both modes check every output (see check_pass) and
print, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. The lines before it stamp the host and
give each metric's median, quartiles, min and sample count.

README.md says why each workload exists and which per-layer number
should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
CMAKE_DIR = BUILD / "cmake"
RACE_DETECTOR = CMAKE_DIR / "repo" / "race_detector"
TRACE_TOOL = CMAKE_DIR / "repo" / "trace_tool"
GEN = CMAKE_DIR / "perfbench_gen"
LAYERS = CMAKE_DIR / "perfbench_layers"

POS = ("hb", "shb", "maz")
CLOCKS = ("tc", "vc")
ANALYSES = [f"{po}/{clock}" for po in POS for clock in CLOCKS]

# The input each workload's single-analysis runs read: the .tcb file
# on the default materialized path, or the .tcs shard set that the
# capture step wrote, streamed. The fan-out run always streams the
# .tcb file, so on ingest it also checks .tcs reports against .tcb.
SINGLE_FROM_SHARDS = {"corpus": False, "ingest": True, "fanout": False}

# race_detector prints its analysis time in whole milliseconds. A
# printed 0.000 is read as half of that, and the *_tc_over_vc
# geomeans leave out the unit-* corpus entries, which analyze in under
# a millisecond.
MIN_ANALYSIS_S = 0.0005
RATIO_EXCLUDED_PREFIX = "unit-"

# Theorem 1 of the paper: computing HB with tree clocks touches at most
# 3 entries per entry of vector time that changes. It is stated for HB
# only; SHB's deep copies and MAZ's reader joins fall outside it, and
# the corpus does push MAZ past 3.
THEOREM1_BOUND = 3.0
THEOREM1_POS = ("hb",)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def fanout_workers():
    # The producer thread plus the workers may not exceed the cores.
    cores = len(os.sched_getaffinity(0))
    return max(1, min(len(ANALYSES), cores - 1))


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"repository sources not found under {ROOT}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j",
                      str(len(os.sched_getaffinity(0))),
                      "--target", "perfbench_all"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                raise BenchError(f"build failed; see {BUILD / 'build.log'}")


class Proc:
    """One finished child process."""

    def __init__(self, argv):
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in argv],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT,
                                 env=child_env(), text=True)
        self.out = child.stdout.read()
        child.stdout.close()
        # wait4 rather than wait: it also returns the child's peak RSS.
        _, status, usage = os.wait4(child.pid, 0)
        self.wall = time.perf_counter() - start
        child.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.ok = True


REPORT_PATTERNS = [
    ("races", re.compile(r"^races\s*:\s*(\d+)\s+\(w-w (\d+), w-r (\d+), "
                         r"r-w (\d+)\)")),
    ("racy", re.compile(r"^racy variables\s*:\s*(\d+)")),
    ("work", re.compile(r"^clock work\s*:\s*(\d+) entries touched, (\d+) "
                        r"entries changed")),
    ("bytes", re.compile(r"^clock bytes\s*:\s*(\d+) resident, (\d+) peak")),
]


def parse_race_detector(proc):
    """Sets proc.analysis_s and proc.reports: analysis name -> [races,
    w-w, w-r, r-w, racy vars, dsWork, vtWork, clock-bytes peak], the
    order perfbench_layers prints. Marks the run failed when the exit
    code or the output is not what race_detector documents."""
    proc.analysis_s = None
    proc.reports = {}
    current = None
    for line in proc.out.splitlines():
        m = re.match(r"^analysis time\s*:\s*([0-9.]+) s", line)
        if m:
            proc.analysis_s = max(float(m.group(1)), MIN_ANALYSIS_S)
            continue
        m = re.match(r"^--- (\S+) ---$", line)
        if m:
            current = proc.reports.setdefault(m.group(1), {})
            continue
        for key, pattern in REPORT_PATTERNS:
            m = pattern.match(line)
            if m and current is not None:
                current[key] = [int(g) for g in m.groups()]
    for name, fields in list(proc.reports.items()):
        if len(fields) != len(REPORT_PATTERNS):
            proc.ok = False
            continue
        proc.reports[name] = (fields["races"] + fields["racy"] +
                              fields["work"] + [fields["bytes"][1]])
    any_race = any(r[0] > 0 for r in proc.reports.values()
                   if isinstance(r, list))
    if proc.code not in (0, 2) or proc.analysis_s is None:
        proc.ok = False
        # Keeps the pass's sums defined; the verdict reports the run.
        proc.analysis_s = proc.analysis_s or MIN_ANALYSIS_S
    elif proc.code != (2 if any_race else 0):
        proc.ok = False


def run_race_detector(args, expect):
    proc = Proc([RACE_DETECTOR] + args)
    parse_race_detector(proc)
    if sorted(proc.reports) != sorted(expect):
        proc.ok = False
    return proc


class Trace:
    def __init__(self, name, path, events):
        self.name = name
        self.path = Path(path)
        self.events = events
        self.cap = self.path.with_name(self.name + "-cap")

    @property
    def shard0(self):
        return Path(f"{self.cap}.0.tcs")


def generate(workload, seed, scale, workdir):
    proc = Proc([GEN, workload, seed, scale, workdir])
    if proc.code != 0:
        raise BenchError(f"perfbench_gen failed:\n{proc.out}")
    traces = []
    for line in proc.out.splitlines():
        name, path, events = line.split("\t")
        traces.append(Trace(name, path, int(events)))
    return traces


def run_pass(workload, traces, index):
    """One pass over every trace: capture (split), the six single
    analyses and the fan-out. Returns the trace name -> runs map."""
    # Alternate which clock runs first, so drift over a pass does not
    # favour one side of the TC/VC ratios.
    clocks = CLOCKS if index % 2 == 0 else CLOCKS[::-1]
    runs = {}
    for t in traces:
        split = Proc([TRACE_TOOL, "split", t.path, t.cap])
        split.ok = split.code == 0 and t.shard0.is_file()
        r = {"split": split}
        for po in POS:
            for clock in clocks:
                if SINGLE_FROM_SHARDS[workload]:
                    argv = [f"--trace={t.shard0}", "--stream"]
                else:
                    argv = [f"--trace={t.path}"]
                argv += [f"--po={po}", f"--clock={clock}"]
                r[f"{po}/{clock}"] = run_race_detector(
                    argv, [f"{po}/{clock}"])
        r["fanout"] = run_race_detector(
            [f"--trace={t.path}", "--stream", "--po=" + ",".join(POS),
             "--clock=" + ",".join(CLOCKS),
             f"--parallel={fanout_workers()}"], ANALYSES)
        runs[t.name] = r
    return runs


def check_pass(runs, first):
    """Marks failed every run whose outputs disagree with the rest.

    Per (trace, po), TC and VC report the same races, racy variables
    and vtWork, and TC stays within Theorem 1. The fan-out's reports
    equal the single runs' (on ingest: .tcb stream against .tcs
    stream), and every report equals the first pass's."""
    for name, r in runs.items():
        singles = {a: r[a] for a in ANALYSES}
        for po in POS:
            tc, vc = singles[f"{po}/tc"], singles[f"{po}/vc"]
            if not (tc.ok and vc.ok):
                continue
            a, b = tc.reports[f"{po}/tc"], vc.reports[f"{po}/vc"]
            if a[:5] != b[:5] or a[6] != b[6]:
                tc.ok = vc.ok = False
            if (po in THEOREM1_POS and a[6] > 0 and
                    a[5] / a[6] > THEOREM1_BOUND):
                tc.ok = False
        fan = r["fanout"]
        if fan.ok:
            for a, proc in singles.items():
                if proc.ok and fan.reports[a] != proc.reports[a]:
                    fan.ok = False
        if first is not None:
            for a, proc in singles.items():
                if proc.ok and proc.reports[a] != first[name][a].reports[a]:
                    proc.ok = False


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_metrics(traces, runs):
    """End-to-end metrics of one pass."""
    events = sum(t.events for t in traces)
    procs = [p for r in runs.values() for p in r.values()]
    detectors = [p for r in runs.values() for k, p in r.items()
                 if k != "split"]
    m = {}
    for a in ANALYSES:
        seconds = sum(r[a].analysis_s for r in runs.values())
        m[a.replace("/", "_") + "_events_per_s"] = events / seconds
    for po in POS:
        ratios = []
        for t in traces:
            if t.name.startswith(RATIO_EXCLUDED_PREFIX):
                continue
            tc = runs[t.name][f"{po}/tc"].analysis_s
            vc = runs[t.name][f"{po}/vc"].analysis_s
            ratios.append(vc / tc)
        m[f"{po}_tc_over_vc"] = geomean(ratios)
    m["fanout_events_per_s"] = events / sum(
        r["fanout"].analysis_s for r in runs.values())
    m["capture_events_per_s"] = events / sum(
        r["split"].wall for r in runs.values())
    m["setup_s"] = sum(p.wall - p.analysis_s for p in detectors)
    m["peak_rss_mb"] = max(p.rss_mb for p in procs)
    m["ok_share"] = sum(p.ok for p in procs) / len(procs)
    return m


def summarize(samples):
    """Median, quartiles, min and count of one metric's samples."""
    s = sorted(samples)
    q1, q3 = ((s[0], s[0]) if len(s) < 2 else
              statistics.quantiles(s, n=4)[::2])
    return {"median": statistics.median(s), "q1": q1, "q3": q3,
            "min": s[0], "n": len(s)}


def measure(workload, traces, seconds):
    """--trace 0: passes until the time is used up."""
    budget_start = time.perf_counter()
    passes, samples = [], {}
    first = None
    while True:
        start = time.perf_counter()
        runs = run_pass(workload, traces, len(passes))
        check_pass(runs, first)
        first = first or runs
        passes.append(runs)
        for key, value in pass_metrics(traces, runs).items():
            samples.setdefault(key, []).append(value)
        elapsed = time.perf_counter() - budget_start
        # Start another pass only if it should end within the budget.
        if elapsed + (time.perf_counter() - start) > seconds:
            break
    procs = [p for runs in passes for r in runs.values() for p in r.values()]
    return samples, procs, len(passes)


def traced(workload, traces, workdir):
    """--trace 1: the in-process layer timings, and one CLI pass that
    they must agree with."""
    layers = Proc([LAYERS, workdir, fanout_workers()] +
                  [t.path for t in traces])
    if layers.code != 0:
        raise BenchError(f"perfbench_layers failed:\n{layers.out}")
    report = json.loads(layers.out)
    runs = run_pass(workload, traces, 0)
    check_pass(runs, None)
    procs = [p for r in runs.values() for p in r.values()]
    attempted = len(procs) + 2 * len(report["results"])
    failed = sum(not p.ok for p in procs)
    for res in report["results"]:
        cli = runs[res["trace"]][res["analysis"]]
        # The harness and race_detector must agree on races, work
        # counters and clock bytes for the same (trace, po, clock).
        expected = cli.reports.get(res["analysis"]) if cli.ok else None
        for outcome in (res["plain"], res["traced"]):
            if outcome != expected:
                failed += 1
    samples = {k: [v] for k, v in report["metrics"].items()}
    return samples, attempted, failed


def host_stamp(args, repetitions):
    def cpu_model():
        try:
            for line in open("/proc/cpuinfo"):
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    digest = hashlib.sha256()
    for sub in ("src", "examples", "perfbench"):
        for f in sorted((ROOT / sub).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    git_rev = "none"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_rev = git.stdout.strip() or "none"
    stamp = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
             "git_rev": git_rev, "source_sha256": digest.hexdigest(),
             "workload": args.workload, "seed": args.seed, "scale": args.scale,
             "trace": args.trace, "repetitions": repetitions,
             "fanout_workers": fanout_workers()}
    stamp_file = CMAKE_DIR / "build_stamp.txt"
    for line in stamp_file.read_text().splitlines():
        key, _, value = line.partition("=")
        stamp[key] = value.strip()
    return stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SINGLE_FROM_SHARDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Event-count multiplier; selftest.py runs a tiny size.
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    try:
        build()
        workdir = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            traces = generate(args.workload, args.seed, args.scale, workdir)
            if args.trace:
                samples, attempted, failed = traced(args.workload, traces,
                                                    workdir)
                repetitions = 1
            else:
                samples, procs, repetitions = measure(
                    args.workload, traces, args.seconds)
                attempted = len(procs)
                failed = sum(not p.ok for p in procs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        stamp = host_stamp(args, repetitions)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    stats = {k: summarize(v) for k, v in samples.items()}
    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             [section]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": units.get(k, "")}
                    for k, s in stats.items()},
    }
    print(json.dumps({"host": stamp}))
    print(json.dumps({"stats": stats}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
