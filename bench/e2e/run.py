#!/usr/bin/env python3
"""Runs the end-to-end benchmark of the genie::Engine facade.

Builds bench_e2e from this checkout (CMake, Release, into .bench_build/e2e),
runs each workload in its own process, checks that every answer was
correct, and prints every metric by name with its unit and sample count.
The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the span recorder is on and the metrics are the per-layer
ones, rolled up from the run's spans; end-to-end numbers come only from
untraced runs.

  python3 bench/e2e/run.py --workload ann-batch --seed 1 --trace 0
  python3 bench/e2e/run.py --seed 1 --trace 1      # all four workloads
  python3 bench/e2e/run.py --quick                 # smoke test, ~1/20 size

--seconds defaults to run_seconds of BENCHMARK.json.

Result files (one per run), Chrome traces and out/e2e.json land in --out
(default .bench_build/out).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["ann-batch", "seq-remote", "docs-online", "docs-mutate"]
SEARCH_CALLS = {"Engine::Search", "Engine::SearchStream", "Engine::SearchAsync"}
# A run may take this long beyond its measured seconds (data generation,
# five engine builds, the warm-up, the oracle) before it is killed.
RUN_SLACK_S = 50

# Per-layer metrics of a traced run, in print order: (name, unit).
PER_LAYER = [
    ("api.call_us", "us/query"),
    ("api.unattributed_us", "us/query"),
    ("api.unattributed_share", "share"),
    ("api.stage_overruns", "count"),
    ("core.prepare_us", "us/query"),
    ("core.query_transfer_us", "us/query"),
    ("core.match_us", "us/query"),
    ("core.select_us", "us/query"),
    ("core.merge_us", "us/query"),
    ("core.match_share", "share"),
    ("sim.launches_per_query", "count/query"),
    ("sim.h2d_bytes_per_query", "B/query"),
    ("sim.d2h_bytes_per_query", "B/query"),
    ("sim.peak_alloc_mb", "MB"),
    ("lsh.build_index_s", "s"),
    ("lsh.query_transform_us", "us/query"),
    ("index.build_s", "s"),
    ("index.insert_ms", "ms"),
    ("index.remove_ms", "ms"),
    ("index.write_p50_ms", "ms"),
    ("index.write_p99_ms", "ms"),
    ("index.compactions", "count"),
    ("index.compact_s_total", "s"),
    ("index.pause_ms_max", "ms"),
    ("plan.stats_s", "s"),
    ("plan.plan_us", "us"),
    ("serve.queue_us", "us/query"),
    ("serve.batches", "count"),
    ("serve.coalesce_factor", "requests/batch"),
    ("serve.cache_hit_rate", "share"),
    ("serve.dedup_followers", "count"),
    ("serve.rejected", "count"),
    ("net.scatter_us", "us/query"),
    ("net.network_us", "us/query"),
    ("net.worker_match_us", "us/query"),
    ("net.request_bytes_per_query", "B/query"),
    ("net.response_bytes_per_query", "B/query"),
    ("net.calls", "count"),
    ("net.failures", "count"),
    ("net.hedged", "count"),
    ("sa.verify_us", "us/query"),
    ("trace_overhead", "share"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def build(build_dir):
    """Configures (once) and builds bench_e2e; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the library sources (CMakeLists.txt, src/) are not in "
            + ROOT)
        return None
    os.makedirs(build_dir, exist_ok=True)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            log("run.py: %s holds a build of another source tree; pass an "
                "empty or benchmark-only --build directory" % build_dir)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.exists(cache):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    build_log = os.path.join(build_dir, "build.log")
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                log("run.py: build failed (" + " ".join(step) + ")")
                return None
    return os.path.join(build_dir, "bench_e2e")


def run_once(binary, workload, seed, seconds, quick, traced, out_dir):
    """One bench_e2e process; returns (result dict, trace events) or None."""
    tag = "%s-s%d%s%s" % (workload, seed, "-quick" if quick else "",
                          "-trace" if traced else "")
    result_path = os.path.join(out_dir, tag + ".json")
    trace_path = os.path.join(out_dir, tag + ".trace.json")
    for path in (result_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", result_path]
    if quick:
        cmd.append("--quick")
    if traced:
        cmd += ["--trace", "--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out" % tag)
        return None
    # Exit 1 = the oracle found wrong answers; the result is still written.
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        log("run.py: %s exited with %d" % (tag, proc.returncode))
        return None
    with open(result_path) as f:
        result = json.load(f)
    events = []
    if traced:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
    return result, events


def rollup(result, events):
    """Per-layer metrics of one traced run.

    Layer seconds are request-attributed: for every root span of a facade
    search call, the SearchProfile attached to it says how long the call
    spent in each stage, and whatever the stages do not cover is the api
    layer's unattributed time. Under serving, a request carries the stage
    seconds of the whole super-batch that answered it: the time that
    request waited on the batch.
    """
    counters = result["counters"]
    roots = [e for e in events
             if e["name"] in SEARCH_CALLS and e["args"]["parent"] == 0]
    queries = sum(e["args"]["queries"] for e in roots) or 1.0
    total = {}
    call_s = attributed_s = 0.0
    overruns = 0
    for e in roots:
        a = e["args"]
        # A pipelined stream stages chunk k+1 (prepare_s, counted inside
        # query_transfer_s) while chunk k executes; overlap_s is how long
        # the whole prepare step overlapped execution, so at most
        # min(prepare_s, overlap_s) of the stage seconds ran concurrently.
        a["concurrent_s"] = min(a["prepare_s"], a["overlap_s"])
        for key, value in a.items():
            total[key] = total.get(key, 0.0) + value
        remote = a["scatter_s"] > 0
        device_s = a["scatter_s"] if remote else a["match_s"] + a["select_s"]
        stages = (a["query_transfer_s"] + device_s + a["merge_s"]
                  + a["verify_s"] - a["concurrent_s"])
        wall = e["dur"] / 1e6
        if stages > wall * 1.01 + 1e-6:
            overruns += 1
        call_s += wall
        attributed_s += stages + a["queue_s"]
        if not remote:
            total["local_match_s"] = total.get("local_match_s", 0.0) + a["match_s"]
            total["local_select_s"] = (total.get("local_select_s", 0.0)
                                       + a["select_s"])
    t = lambda key: total.get(key, 0.0)
    c = lambda key: counters.get(key, 0.0)
    answered = c("run.answered") or 1.0
    us = lambda seconds: seconds / queries * 1e6
    unattributed_s = call_s - attributed_s
    m = {
        "api.call_us": us(call_s),
        "api.unattributed_us": us(unattributed_s),
        "api.unattributed_share": unattributed_s / call_s if call_s else 0.0,
        "api.stage_overruns": overruns,
        "core.prepare_us": us(t("prepare_s")),
        "core.query_transfer_us": us(t("query_transfer_s")),
        "core.match_us": us(t("local_match_s")),
        "core.select_us": us(t("local_select_s")),
        "core.merge_us": us(t("merge_s")),
        "core.match_share": t("local_match_s") / call_s if call_s else 0.0,
        "sim.launches_per_query": c("sim.kernel_launches") / answered,
        "sim.h2d_bytes_per_query": c("sim.bytes_h2d") / answered,
        "sim.d2h_bytes_per_query": c("sim.bytes_d2h") / answered,
        "sim.peak_alloc_mb": c("sim.peak_alloc_bytes") / 2**20,
        "lsh.build_index_s": c("lsh.build_index_s"),
        "lsh.query_transform_us": c("lsh.query_transform_s") * 1e6,
        "index.build_s": c("index.build_s"),
        "index.insert_ms": c("index.insert_ms"),
        "index.remove_ms": c("index.remove_ms"),
        "index.write_p50_ms": c("index.write_p50_ms"),
        "index.write_p99_ms": c("index.write_p99_ms"),
        "index.compactions": c("index.compactions"),
        "index.compact_s_total": c("index.compact_s_total"),
        "index.pause_ms_max": c("index.pause_s_max") * 1e3,
        "plan.stats_s": c("plan.stats_s"),
        "plan.plan_us": c("plan.plan_s") * 1e6,
        "serve.queue_us": us(t("queue_s")),
        "serve.batches": c("serve.batches"),
        "serve.coalesce_factor": c("serve.coalesce_factor"),
        "serve.cache_hit_rate": c("serve.cache_hit_rate"),
        "serve.dedup_followers": c("serve.dedup_followers"),
        "serve.rejected": c("serve.rejected"),
        "net.scatter_us": us(t("scatter_s")),
        "net.network_us": us(t("network_s")),
        "net.worker_match_us": us(t("worker_match_s")),
        "net.request_bytes_per_query": t("request_bytes") / queries,
        "net.response_bytes_per_query": t("response_bytes") / queries,
        "net.calls": t("calls"),
        "net.failures": t("failures"),
        "net.hedged": t("hedged"),
        "sa.verify_us": us(t("verify_s")),
    }
    # Where the facade calls' time went, by layer (shares of api call time).
    layers = {
        "serve": t("queue_s"),
        "core": (t("query_transfer_s") + t("local_match_s")
                 + t("local_select_s") + t("merge_s") - t("concurrent_s")),
        "net": t("scatter_s"),
        "sa": t("verify_s"),
        "api (unattributed)": unattributed_s,
    }
    return m, layers, call_s


def print_run(workload, result, layer_metrics=None, layers=None, call_s=0.0):
    fp = result["fingerprint"]
    print("== %s  seed %d  %.0fs  plan_tier=%s  simd=%s  nproc=%d  "
          "device_workers=%d  %s" % (
              workload, fp["seed"], fp["seconds"], fp["plan_tier"] or "-",
              fp["simd_arch"], fp["nproc"], fp["device_workers"],
              fp["build_type"]))
    print("   attempted %d  failed %d  wrong %d" % (
        result["attempted"], result["failed"], result["wrong"]))
    for note in result["notes"]:
        print("   ! " + note)
    for section in ("metrics", "diagnostics"):
        for name, m in result[section].items():
            print("   %-24s %14.4f %-8s n=%d%s" % (
                name, m["value"], m["unit"], m["samples"],
                "  (diagnostic)" if section == "diagnostics" else ""))
    if layer_metrics is not None:
        print("   layers (traced run; share of %.3f s in facade calls):"
              % call_s)
        for layer, seconds in layers.items():
            share = seconds / call_s if call_s else 0.0
            print("     %-22s %10.4f s  %6.1f%%" % (layer, seconds,
                                                     100 * share))
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print("   %-30s %14.4f %s" % (name, layer_metrics[name],
                                          units[name]))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="about 1/20 of each workload (smoke test only)")
    parser.add_argument("--build", default=os.path.join(ROOT, ".bench_build",
                                                        "e2e"))
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "out"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seconds = max(args.seconds / 20, 0.5) if args.quick else args.seconds

    binary = build(os.path.abspath(args.build))
    if binary is None:
        return 2
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    provenance = {"source_digest": source_digest(), "git_rev": git_rev()}

    summary = {"runs": []}
    correct, attempted, failed = True, 0, 0
    metrics = {}
    for workload in workloads:
        run = run_once(binary, workload, args.seed, seconds, args.quick,
                       bool(args.trace), out_dir)
        if run is None:
            return 1
        result, events = run
        result["fingerprint"].update(provenance)
        if args.trace:
            layer_metrics, layers, call_s = rollup(result, events)
            # What tracing adds: the recorder's own time (span construction
            # and append) over the time in facade calls. A qps ratio of a
            # traced and an untraced run would be dominated by run-to-run
            # noise several times larger than this.
            layer_metrics["trace_overhead"] = (
                result["counters"].get("trace.recording_s", 0.0) / call_s
                if call_s else 0.0)
            result["per_layer"] = layer_metrics
            result["layers"] = layers
            print_run(workload, result, layer_metrics, layers, call_s)
            print("   trace_overhead = %.6f (span recording / facade call "
                  "time)" % layer_metrics["trace_overhead"])
            reported = {name: {"value": layer_metrics[name], "unit": unit}
                        for name, unit in PER_LAYER}
        else:
            print_run(workload, result)
            reported = {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()}
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        summary["runs"].append(result)
        if len(workloads) == 1:
            metrics = reported
        else:
            metrics.update({workload + ":" + name: value
                            for name, value in reported.items()})

    with open(os.path.join(out_dir, "e2e.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
