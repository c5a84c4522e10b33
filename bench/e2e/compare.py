#!/usr/bin/env python3
"""Noise-aware A/B comparison of two checkouts on the end-to-end benchmark.

Runs `pairs` alternating parent/change runs of every workload (pair i uses
seed i on both sides and flips which side runs first; each run lasts
run_seconds of BENCHMARK.json), or reads runs made earlier, then reports
one row per (workload, end-to-end metric) with each side's median and
quartiles. Each pair shares its seed, so the row's change is read from the
per-pair relative differences d_i = (change_i - parent_i) / parent_i,
signed so that positive is worse: `worse` is their median and `spread`
the distance between their quartiles, which cancels input variation
between seeds. Verdicts:

  regressed   worse > bound (BENCHMARK.json), and either spread <= bound
              or every change run is worse than every parent run;
  unresolved  spread > bound, unless every change run is better or every
              change run worse than every parent run;
  improved    at least ten pairs, the change wins at least 9/10 of them
              (ties count for neither), the medians differ by more than
              the parent's IQR, and the change fails no larger share of
              operations than the parent;
  unchanged   otherwise.

Each workload also gets a `failed_share` row (failed / attempted over all
its runs): regressed when the change's share is above the parent's.

Runs whose fingerprints (SIMD arch and lanes, nproc, device workers, build
type, seconds, --quick, tracing) differ are refused; a differing plan tier
is reported. Exit status: 0 when every row is unchanged or improved, 1
when any row regressed, 3 when none regressed but some are unresolved, 2
when refused.

  python3 bench/e2e/compare.py --parent ../parent --change . --pairs 10
  python3 bench/e2e/compare.py --parent-results A/ --change-results B/
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MATCHED = ["simd_arch", "simd_lanes", "nproc", "device_workers", "build_type",
           "seconds", "quick", "traced"]
WIN_SHARE = 0.9
MIN_PAIRS_FOR_GAIN = 10


def run_side(checkout, workload, seed, seconds, out_dir):
    """One run.py invocation in `checkout`; returns its result file."""
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--out", out_dir]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    path = os.path.join(out_dir, "%s-s%d.json" % (workload, seed))
    if proc.returncode != 0 or not os.path.exists(path):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("compare.py: %s seed %d failed in %s" %
                         (workload, seed, checkout))
    return load(path)


def load(path):
    with open(path) as f:
        result = json.load(f)
    result["path"] = path
    return result


def load_dir(directory):
    """Untraced result files of run.py in `directory`, keyed (workload, seed)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-s*.json"))):
        if path.endswith(".trace.json") or "-trace" in os.path.basename(path):
            continue
        result = load(path)
        fp = result["fingerprint"]
        runs[(fp["workload"], int(fp["seed"]))] = result
    return runs


def check_fingerprints(parent, change):
    reference = None
    for result in list(parent.values()) + list(change.values()):
        fp = result["fingerprint"]
        key = {k: fp.get(k) for k in MATCHED}
        if reference is None:
            reference = (key, result["path"])
        elif key != reference[0]:
            return "fingerprints differ:\n  %s %s\n  %s %s" % (
                reference[1], reference[0], result["path"], key)
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(parent, change, better, bound, more_failures):
    """Classifies one (workload, metric) row; parent[i] and change[i] are
    one pair (same seed)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    higher = better == "higher"
    sign = -1.0 if higher else 1.0
    d = [sign * (c - p) / p if p else 0.0 for p, c in zip(parent, change)]
    d_q1, worse_by, d_q3 = quartiles(d)
    spread = d_q3 - d_q1
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    all_worse = (max(change) < min(parent) if higher
                 else min(change) > max(parent))
    improved = (len(parent) >= MIN_PAIRS_FOR_GAIN and not more_failures
                and wins >= math.ceil(WIN_SHARE * len(parent))
                and worse_by < 0 and abs(c_med - p_med) > p_q3 - p_q1)
    if worse_by > bound and (spread <= bound or all_worse):
        status = "regressed"
    elif spread > bound and not (all_better or all_worse):
        status = "unresolved"
    elif improved:
        status = "improved"
    else:
        status = "unchanged"
    return {"status": status, "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3), "worse_by": worse_by,
            "spread": spread, "wins": wins, "pairs": len(parent)}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--parent-results", help="directory of parent runs")
    parser.add_argument("--change-results", help="directory of change runs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "compare"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]

    if args.parent_results and args.change_results:
        parent = load_dir(args.parent_results)
        change = load_dir(args.change_results)
    elif args.parent and args.change:
        parent, change = {}, {}
        sides = [("parent", os.path.abspath(args.parent), parent),
                 ("change", os.path.abspath(args.change), change)]
        for i in range(args.pairs):
            seed = i + 1
            for workload in workloads:
                for name, checkout, runs in (sides if i % 2 == 0
                                             else sides[::-1]):
                    print("pair %d/%d  %-12s %s" % (i + 1, args.pairs,
                                                    workload, name),
                          file=sys.stderr, flush=True)
                    runs[(workload, seed)] = run_side(
                        checkout, workload, seed, spec["run_seconds"],
                        os.path.join(os.path.abspath(args.out), name))
    else:
        parser.error("give --parent and --change, or --parent-results and "
                     "--change-results")

    refused = check_fingerprints(parent, change)
    if refused:
        print("compare.py: refusing to compare: " + refused, file=sys.stderr)
        return 2

    counts = {}
    print("%-12s %-12s %-11s %31s %31s %8s %7s %6s" % (
        "workload", "metric", "verdict", "parent q1/median/q3",
        "change q1/median/q3", "worse", "spread", "wins"))
    for workload in workloads:
        seeds = sorted(s for (w, s) in parent if w == workload
                       and (w, s) in change)
        if not seeds:
            print("%-12s no paired runs" % workload)
            continue
        tiers = {change[(workload, s)]["fingerprint"]["plan_tier"]
                 for s in seeds} | {parent[(workload, s)]["fingerprint"]
                                    ["plan_tier"] for s in seeds}
        if len(tiers) > 1:
            print("%-12s note: plan tiers differ: %s" % (workload,
                                                         sorted(tiers)))
        p_failed = failed_share([parent[(workload, s)] for s in seeds])
        c_failed = failed_share([change[(workload, s)] for s in seeds])
        more_failures = c_failed > p_failed
        status = "regressed" if more_failures else "unchanged"
        counts[status] = counts.get(status, 0) + 1
        print("%-12s %-12s %-11s %31.4g %31.4g" % (
            workload, "failed_share", status, p_failed, c_failed))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            v = verdict(p, c, metric["better"], metric["bound"], more_failures)
            counts[v["status"]] = counts.get(v["status"], 0) + 1
            print("%-12s %-12s %-11s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g "
                  "%+7.1f%% %6.1f%% %3d/%d" % (
                      workload, name, v["status"], *v["parent"], *v["change"],
                      100 * v["worse_by"], 100 * v["spread"], v["wins"],
                      v["pairs"]))
    print("rows: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    if counts.get("regressed"):
        return 1
    return 3 if counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
