#!/usr/bin/env python3
"""peisim benchmark: runs one workload for a fixed time and reports its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload pr-medium-la [--seed 1]
        [--seconds 40] [--trace 0|1]

The first run builds perfbench/ (with the simulator sources in src/) into
.bench_build/perfbench.  Each repetition of the workload then runs in its own
process, one after another, until --seconds have passed (at least three
untraced repetitions, or one untraced and one traced pair with --trace 1).

Every repetition validates the workload's output and audits the stats
registry; a failure, a crash or an exception counts as one failed
repetition and contributes no timings.  Every repetition must also
reproduce the simulated results and every counter of the first one exactly.

The human-readable report goes to stdout; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  Chrome trace files of traced repetitions are written to
.bench_build/perfbench/traces/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = BUILD_DIR / "traces"
WORKLOADS = ("pr-medium-la", "bfs-large-pim", "rp-medium-ddr-host")

MIN_UNTRACED_REPS = 3
REP_TIMEOUT_S = 150
# No repetition starts unless it is expected to end within this budget.
RUN_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the repetition program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources at %s" % (ROOT / "src"))
    commands = [["cmake", "--build", str(BUILD_DIR), "--target",
                 "perfbench_rep", "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        commands.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                            str(BUILD_DIR)])
    for cmd in commands:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return BUILD_DIR / "perfbench_rep"


def run_rep(binary, workload, seed, trace_path):
    """One repetition in its own process; returns its result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out after %d s" % REP_TIMEOUT_S}
    sys.stderr.write(proc.stderr)
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"ok": False,
                "error": "exit code %d, no result" % proc.returncode}
    if proc.returncode != 0 and rep.get("ok"):
        rep["ok"] = False
        rep["error"] = "exit code %d" % proc.returncode
    return rep


def flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], prefix + key + ".")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, prefix + str(i) + ".")
    else:
        yield prefix[:-1], value


def fingerprint(rep):
    """Everything that must repeat exactly: sim results and counts."""
    return dict(flatten({"sim": rep["sim"], "layer": rep["layer"],
                         "stats": rep["stats"]}))


def first_difference(a, b):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key, a.get(key), b.get(key)
    return None


def run_reps(binary, workload, seed, seconds, trace):
    """Repetitions until the time is used; traced ones alternate."""
    reps = []
    durations = []
    start = time.monotonic()
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
    while True:
        traced = trace and len(reps) % 2 == 1
        trace_path = (TRACE_DIR / ("%s-seed%d-rep%d.json"
                                   % (workload, seed, len(reps)))
                      if traced else None)
        t0 = time.monotonic()
        rep = run_rep(binary, workload, seed, trace_path)
        durations.append(time.monotonic() - t0)
        rep["traced"] = traced
        reps.append(rep)
        log("perfbench: %s seed %d rep %d%s: %s %.2f s" % (
            workload, seed, len(reps), " (traced)" if traced else "",
            "ok" if rep["ok"] else "FAILED: " + rep.get("error", ""),
            durations[-1]))
        elapsed = time.monotonic() - start
        next_s = max(durations)
        minimum = 2 if trace else MIN_UNTRACED_REPS
        if elapsed + next_s > RUN_LIMIT_S:
            break
        if len(reps) >= minimum and elapsed + next_s > seconds:
            break
    return reps


def median_of(reps, section, key):
    return statistics.median(r[section][key] for r in reps)


def end_to_end(good):
    m = {key: median_of(good, "host", key)
         for key in ("run_s", "setup_s", "wall_s", "peak_rss_mb")}
    m.update(good[0]["sim"])
    return m


def per_layer(good):
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or not traced:
        return {}
    m = dict(untraced[0]["layer"])
    for key in traced[0]["layer_host"]:
        m[key] = median_of(traced, "layer_host", key)
    run_s = median_of(untraced, "host", "run_s")
    m["trace.overhead"] = median_of(traced, "host", "run_s") / run_s
    # The estimates overlap (a cache access includes the events it
    # schedules), so this is a remainder, not a partition.
    m["ledger.unattributed_s"] = run_s - sum(
        v for k, v in m.items() if k.endswith("host_s_est"))
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()

    reps = run_reps(binary, args.workload, args.seed, args.seconds,
                    args.trace)
    good = [r for r in reps if r["ok"]]
    failed = len(reps) - len(good)
    if good:
        base = fingerprint(good[0])
        for i, rep in enumerate(good[1:], start=2):
            diff = first_difference(base, fingerprint(rep))
            if diff:
                log("perfbench: NOT DETERMINISTIC: good repetition %d differs"
                    " from the first at %s: %r vs %r" % (i, *diff))
                failed += 1

    values = (per_layer(good) if args.trace else end_to_end(good)) if good \
        else {}
    metrics = {}
    for metric in wanted:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("perfbench: metrics not measured: %s" % ", ".join(missing))
        failed = max(failed, 1)

    print("perfbench %s, seed %d, %s: %d repetition(s), %d failed" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        len(reps), failed))
    for metric in wanted:
        if metric["name"] in metrics:
            print("  %-30s %16.6g %-6s (%s is better)" % (
                metric["name"], metrics[metric["name"]]["value"],
                metric["unit"], metric["better"]))
    for key in sorted(set(values) - set(metrics)):
        print("  %-30s %16.6g (diagnostic)" % (key, values[key]))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
