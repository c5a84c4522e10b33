#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric and derives
the regression bounds of BENCHMARK.json from it.

Runs N untraced sets (one run per workload per set, set i with seed i, so
the spread covers input variation as well as timing noise, as a check of
the benchmark over ten seeds does), then for each (workload, metric)
reports the median, quartiles and spread = IQR / median. A metric's
proposed bound is three times its worst spread over the workloads, rounded
up to 0.01, at least 0.05 and at most 0.25, the largest bound a benchmark
may declare. A bound is never tighter than the spread it came from: when
a metric's worst spread exceeds 0.25 the metric cannot be gated, and the
script says so and writes nothing. setup_s is the exception: it is always
gated, always gets the largest bound so that work moved into set-up
shows, and when its spread exceeds that bound the script only warns, as
compare.py then reports its rows unresolved. Spreads above 10% are
flagged.

  python3 bench/e2e/calibrate.py --sets 10            # print the table
  python3 bench/e2e/calibrate.py --sets 10 --write    # also update bounds

Each run's result file lands in --out (compare.py --parent-results reads
such a directory); the per-run metrics and the table are written to
--record (default bench/e2e/calibration.json); --write rewrites only the
`bound` values of BENCHMARK.json's end_to_end metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MAX_BOUND = 0.25
MIN_BOUND = 0.05
FLAGGED_SPREAD = 0.10


def spread_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_set(workload, seed, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--out", out_dir]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("calibrate.py: %s seed %d failed" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("calibrate.py: %s seed %d had failures" %
                         (workload, seed))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["run_wall_s"] = wall_s  # whole run.py invocation, not a metric
    return values


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=5)
    parser.add_argument("--record",
                        default=os.path.join(HERE, "calibration.json"))
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "calibrate"))
    parser.add_argument("--write", action="store_true",
                        help="update the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.sets < 3:
        parser.error("quartiles need at least 3 sets")
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs = {w: [] for w in workloads}
    for i in range(args.sets):
        for workload in workloads:
            print("set %d/%d  %-12s seed %d" % (i + 1, args.sets, workload,
                                                i + 1), file=sys.stderr,
                  flush=True)
            runs[workload].append(run_set(workload, i + 1,
                                          os.path.abspath(args.out)))

    table = {}
    proposed = {}
    unbounded = []
    print("%-12s %-14s %12s %12s %12s %8s" % ("workload", "metric", "median",
                                              "q1", "q3", "spread"))
    for metric in metrics:
        worst = 0.0
        for workload in workloads:
            stats = spread_stats([r[metric] for r in runs[workload]])
            table.setdefault(workload, {})[metric] = stats
            worst = max(worst, stats["spread"])
            print("%-12s %-14s %12.4f %12.4f %12.4f %7.1f%%%s" % (
                workload, metric, stats["median"], stats["q1"], stats["q3"],
                100 * stats["spread"],
                "  > %d%%" % (100 * FLAGGED_SPREAD)
                if stats["spread"] > FLAGGED_SPREAD else ""))
        if metric == "setup_s":
            proposed[metric] = MAX_BOUND
        else:
            proposed[metric] = min(MAX_BOUND,
                                   max(MIN_BOUND, math.ceil(300 * worst) / 100))
        if worst > proposed[metric]:
            unbounded.append(metric)

    print("\nproposed bounds (3 x worst spread, in [%.2f, %.2f]; setup_s "
          "largest):" % (MIN_BOUND, MAX_BOUND))
    for metric in metrics:
        note = ""
        if metric in unbounded:
            note = ("  below its spread: compare.py reports it unresolved"
                    if metric == "setup_s" else
                    "  below its spread: cannot be gated")
        print("  %-14s %.2f%s" % (metric, proposed[metric], note))
    walls = {w: statistics.median(r["run_wall_s"] for r in runs[w])
             for w in workloads}
    print("\nmedian wall seconds per run: " + ", ".join(
        "%s %.1f" % kv for kv in walls.items()))

    record = {"sets": args.sets, "seconds": spec["run_seconds"],
              "runs": runs, "table": table, "proposed_bounds": proposed}
    with open(args.record, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    if args.write:
        ungated = [m for m in unbounded if m != "setup_s"]
        if ungated:
            print("not writing: spread above the largest bound for " +
                  ", ".join(ungated))
            return 1
        for m in spec["end_to_end"]:
            m["bound"] = proposed[m["name"]]
        with open(BENCHMARK_JSON, "w") as f:
            json.dump(spec, f, indent=2)
            f.write("\n")
        print("updated the bounds in " + BENCHMARK_JSON)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
