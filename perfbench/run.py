#!/usr/bin/env python3
"""End-to-end benchmark of the Panthera reproduction.

Builds the benchmark's job runner from source (perfbench/CMakeLists.txt,
into .bench_build/perfbench), runs one workload in its own process as a
closed loop with one client, checks every job's output, and prints the
metrics. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --workload all     # every workload, one table
  python3 perfbench/run.py --selftest         # the benchmark's own tests

--trace 0 reports the end-to-end metrics; --trace 1 is a separate run
that alternates untraced and traced jobs and reports the per-layer
metrics, writing the traced jobs' spans to
.bench_build/spans/<workload>-seed<N>.json. perfbench/README.md explains
the workloads, the metrics and the span file.
"""

import argparse
import json
import os
import selectors
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("km_cached_scan", "cc_tight_heap", "pagerank_cluster_offheap",
             "sw_dynamic")

# A job slower than this fails (at scale 1 every job takes 1-4 s).
JOB_WALL_LIMIT_S = 60.0

# Default measuring window; BENCHMARK.json's run_seconds.
RUN_SECONDS = 24

# Registry conditions a workload's jobs must meet to drive the layer the
# workload is there for: (key, op, value).
LAYER_CHECKS = {
    "km_cached_scan": [("engine.rdds_evicted_to_disk", "==", 0)],
    "cc_tight_heap": [("gc.major_gcs", ">", 0)],
    "pagerank_cluster_offheap": [("offheap.partitions_cached", ">", 0),
                                 ("offheap.partitions_evicted", ">", 0),
                                 ("cluster.fetch.remote_blocks", ">", 0)],
    "sw_dynamic": [("memsim.migration.pages_to_dram", ">", 0)],
}

END_TO_END = [
    ("records_per_s", "records/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_total_ms", "sim_ms"),
    ("sim_gc_ms", "sim_ms"),
    ("sim_energy_j", "sim_J"),
    ("ok_frac", "ratio"),
]

# Per-layer metrics read straight from the published registry.
REGISTRY_LAYER = [
    "analysis.monitored_calls",
    "engine.stages_run", "engine.tasks", "engine.shuffle_records",
    "engine.shuffle_bytes", "engine.shuffle_spills",
    "engine.rdds_materialized", "engine.rdds_evicted_to_disk",
    "engine.task_retries",
    "heap.objects_allocated", "heap.bytes_allocated", "heap.ref_stores",
    "heap.gc_plab_refills", "heap.emergency_gcs",
    "memsim.cache_hits", "memsim.cache_misses", "memsim.prefetched_misses",
    "memsim.dram.line_reads", "memsim.dram.line_writes",
    "memsim.nvm.line_reads", "memsim.nvm.line_writes",
    "memsim.hotness.samples", "memsim.hotness.epochs",
    "memsim.migration.steps", "memsim.migration.pages_to_dram",
    "memsim.migration.bytes_copied",
    "gc.minor_gcs", "gc.major_gcs", "gc.bytes_copied_to_survivor",
    "gc.bytes_promoted", "gc.cards_scanned",
    "gc.minor.pause_ns.mean", "gc.minor.pause_ns.max",
    "cluster.fetch.local_blocks", "cluster.fetch.remote_blocks",
    "cluster.fetch.remote_bytes", "cluster.net.time_ns",
    "cluster.stage.makespan_ns", "cluster.speculation.launched",
    "cluster.speculation.wasted_ns", "cluster.tasks.process_local",
    "offheap.partitions_cached", "offheap.partitions_evicted",
    "offheap.bytes_cached", "offheap.bytes_read", "offheap.regions_carved",
    "offheap.regions_recycled", "offheap.alloc_failures",
]


def registry_unit(key):
    if "bytes" in key:
        return "bytes"
    if "_ns" in key:
        return "sim_ns"
    return "count"


PER_LAYER = [
    ("core.ctor_s", "s"),
    ("workloads.datagen_s", "s"),
    ("analysis.install_s", "s"),
    ("rdd.actions", "count"),
    ("rdd.action_self_s.p50", "s"),
    ("rdd.action_self_s.tail", "s"),
    ("rdd.mutator_host_s", "s"),
    ("memsim.host_ns_per_line", "ns"),
    ("gc.host_s", "s"),
    ("gc.host_calls", "count"),
    ("gc.host_call_ms.p50", "ms"),
    ("gc.host_call_ms.tail", "ms"),
    ("support.cpu_per_wall", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.traced_jobs", "count"),
] + [(k, registry_unit(k)) for k in REGISTRY_LAYER]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target="perfbench_jobs"):
    """Configures and builds \\p target; exits 1 when the build fails."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", BUILD, "-j4", "--target", target])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, target)


def run_jobs(cmd):
    """Runs one job-runner process, killing it when no line arrives for
    JOB_WALL_LIMIT_S; returns (events, timed_out, peak_rss_kb, exit)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    events = []
    last = time.monotonic()
    timed_out = False
    while True:
        if not sel.select(timeout=1.0):
            if not timed_out and time.monotonic() - last > JOB_WALL_LIMIT_S:
                proc.kill()
                timed_out = True
            continue
        line = proc.stdout.readline()
        if not line:
            break
        last = time.monotonic()
        line = line.strip()
        if line.startswith("{"):
            events.append(json.loads(line))
    sel.close()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return events, timed_out, usage.ru_maxrss, proc.returncode


def runner_outcome(events, code, timed_out):
    """Accounts for a job loop that did not end normally; returns the
    failure reasons. A loop killed at the wall limit or crashed before its
    "end" line had a job in flight, which was attempted too: it is added
    to \p events as a failed job."""
    if timed_out:
        reason = "a job exceeded the %g s wall limit" % JOB_WALL_LIMIT_S
    elif code != 0:
        reason = "job runner exited with %d" % code
    else:
        return []
    if not any(e["kind"] == "end" for e in events):
        events.append({"kind": "job", "index": -1, "warmup": False,
                       "traced": False, "error": reason})
    return [reason]


def check_jobs(workload, expected, jobs):
    """Marks each job ok or not; returns the list of failure reasons."""
    failures = []
    first = None
    for j in jobs:
        why = []
        if "error" in j:
            why.append("threw: " + j["error"])
        else:
            want, tol = expected["checksum"], expected["rel_tolerance"]
            if j["checksum"] is None or \
                    abs(j["checksum"] - want) > tol * max(1.0, abs(want)):
                why.append("checksum %r != %s %r" %
                           (j["checksum"], expected["source"], want))
            reg = j["registry"]
            for key, op, val in LAYER_CHECKS[workload]:
                got = reg.get(key, 0)
                if not (got == val if op == "==" else got > val):
                    why.append("%s = %g, want %s %g" % (key, got, op, val))
            if j.get("gc_host", {}).get("executor_calls", 0):
                why.append("a GC request reached an executor heap's proxy")
            if first is None:
                first = j
            elif reg != first["registry"]:
                diff = sorted(k for k in set(reg) | set(first["registry"])
                              if reg.get(k) != first["registry"].get(k))
                why.append("simulated metrics differ from job %d: %s" %
                           (first["index"], ", ".join(diff[:5])))
        j["ok"] = not why
        failures += ["job %d: %s" % (j["index"], w) for w in why]
    return failures


def normalize(jobs, reference_burst_ns):
    """Adds each job's host times at the reference core speed.

    The job runner samples its CPUs' speed while each job runs (see
    cpp/SpeedProbe.h). A job whose probe bursts took twice the reference
    ran on a core shared with someone else; its host times are scaled by
    reference / burst so that runs on a busy and an idle box compare.
    """
    for j in jobs:
        if "error" in j:
            continue
        job = reference_burst_ns / j["burst_ns"] if j["burst_ns"] else 1.0
        window = (reference_burst_ns / j["window_burst_ns"]
                  if j["window_burst_ns"] else job)
        j["speed"] = job
        j["job_ref_s"] = j["job_s"] * job
        j["cpu_ref_s"] = j["cpu_s"] * job
        for part in ("setup", "ctor", "install", "datagen"):
            j[part + "_ref_s"] = j[part + "_s"] * window
        if "gc_host" in j:
            j["gc_ref_s"] = j["gc_host"]["host_ns"] / 1e9 * job


def end_to_end_metrics(timed, jobs, peak_rss_kb):
    reg = next(j["registry"] for j in jobs if j["ok"])
    ok = sum(1 for j in jobs if j["ok"])
    med = benchstats.median
    values = {
        "records_per_s": med([j["records"] / j["job_ref_s"] for j in timed]),
        "cpu_s": med([j["cpu_ref_s"] for j in timed]),
        "setup_s": med([j["setup_ref_s"] for j in timed]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim_total_ms": reg["time.total_ns"] / 1e6,
        "sim_gc_ms": reg["time.gc_ns"] / 1e6,
        "sim_energy_j": reg["energy.total_joules"],
        "ok_frac": ok / len(jobs),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(timed, traced, spans):
    """Per-layer metrics of a --trace 1 run. Timers are medians over the
    traced jobs at the reference core speed, like the end-to-end ones."""
    reg = traced[0]["registry"]
    med = benchstats.median
    values = {k: reg.get(k, 0) for k in REGISTRY_LAYER}
    speed = {j["index"]: j["speed"] for j in traced}
    by_job = {}
    for s in spans:
        by_job.setdefault(s["job"], []).append(s)
    selfs = {}
    for js in by_job.values():
        selfs.update(benchstats.self_times(js))
    actions = [s for s in spans if s["name"] == "rdd.action"]
    action_self = [selfs[s["id"]] / 1e9 * speed[s["job"]] for s in actions]
    gc_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 * speed[s["job"]]
             for s in spans if s["name"] == "gc.collect"]
    mutator = [j["job_ref_s"] - j["gc_ref_s"] for j in traced]
    lines = reg.get("memsim.cache_hits", 0) + reg.get("memsim.cache_misses", 0)
    tail_action = (benchstats.tail_percentile(action_self) if action_self
                   else ("none", 0.0))
    tail_gc = benchstats.tail_percentile(gc_ms) if gc_ms else ("none", 0.0)
    untraced_rps = med([j["records"] / j["job_ref_s"] for j in timed])
    traced_rps = med([j["records"] / j["job_ref_s"] for j in traced])
    values.update({
        "core.ctor_s": med([j["ctor_ref_s"] for j in traced]),
        "workloads.datagen_s": med([j["datagen_ref_s"] for j in traced]),
        "analysis.install_s": med([j["install_ref_s"] for j in traced]),
        "rdd.actions": len(actions) / len(traced),
        "rdd.action_self_s.p50": (benchstats.percentile(action_self, 50)
                                  if action_self else 0.0),
        "rdd.action_self_s.tail": tail_action[1],
        "rdd.mutator_host_s": med(mutator),
        "memsim.host_ns_per_line": med(mutator) * 1e9 / lines if lines else 0,
        "gc.host_s": med([j["gc_ref_s"] for j in traced]),
        "gc.host_calls": med([j["gc_host"]["minor_calls"] +
                              j["gc_host"]["major_calls"] for j in traced]),
        "gc.host_call_ms.p50": (benchstats.percentile(gc_ms, 50)
                                if gc_ms else 0.0),
        "gc.host_call_ms.tail": tail_gc[1],
        "support.cpu_per_wall": med([j["cpu_s"] / j["job_s"] for j in timed]),
        "trace.overhead_frac": 1.0 - traced_rps / untraced_rps,
        "trace.traced_jobs": len(traced),
    })
    notes = ["rdd.action_self_s.tail is %s of %d actions" %
             (tail_action[0], len(action_self)),
             "gc.host_call_ms.tail is %s of %d collect calls" %
             (tail_gc[0], len(gc_ms))]
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in PER_LAYER}, notes)


def evaluate(workload, expected, jobs, peak_rss_kb, spans):
    """Checks one workload's jobs and computes its metrics: the end-to-end
    ones, or the per-layer ones when \p spans (a --trace 1 run's span
    list) is given. Returns (result, failures, notes)."""
    failures = check_jobs(workload, expected, jobs)
    normalize(jobs, expected["reference_burst_ns"])
    ok_jobs = [j for j in jobs if j["ok"]]
    timed = [j for j in ok_jobs if not j["warmup"] and not j["traced"]]
    traced = [j for j in ok_jobs if j["traced"]]
    if not timed or (spans is not None and not traced):
        failures.append("no measured job passed its checks")
        return {"correct": False, "attempted": len(jobs),
                "failed": len(jobs) - len(ok_jobs), "metrics": {}}, failures, []
    notes = ["%s seed %d (%s), checksum %.17g, %d jobs, %d timed" %
             (workload, expected["seed"], expected["source"],
              expected["checksum"], len(jobs), len(timed)),
             "raw job wall s: median %.4f, quartiles %.4f-%.4f; core speed "
             "vs reference: median %.3f, quartiles %.3f-%.3f" % (
                 (benchstats.median([j["job_s"] for j in timed]),) +
                 benchstats.quartiles([j["job_s"] for j in timed]) +
                 (benchstats.median([j["speed"] for j in timed]),) +
                 benchstats.quartiles([j["speed"] for j in timed]))]
    if spans is not None:
        # Only the spans of traced jobs that passed their checks.
        ok_traced = {j["index"] for j in traced}
        spans = [s for s in spans if s["job"] in ok_traced]
        metrics, more = per_layer_metrics(timed, traced, spans)
        notes += more
        notes.append("self-time ranking over %d traced jobs "
                     "(raw host ms per job, spans per job):" % len(traced))
        for name, ns, n in benchstats.self_time_ranking(spans):
            notes.append("  %-36s %10.2f %8.1f" %
                         (name, ns / 1e6 / len(traced), n / len(traced)))
    else:
        metrics = end_to_end_metrics(timed, jobs, peak_rss_kb)
    result = {"correct": not failures, "attempted": len(jobs),
              "failed": len(jobs) - len(ok_jobs), "metrics": metrics}
    return result, failures, notes


def run_workload(binary, workload, seed, seconds, trace):
    """Runs and checks one workload; returns (result, failures, notes).

    The expected checksum comes from a process of its own, so the memory
    its reference or plain-configuration job needs does not count in the
    job loop's peak_rss_mb."""
    cmd = [binary, "--workload=" + workload]
    if seed is not None:
        cmd.append("--seed=%d" % seed)
    nothing = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    events, timed_out, _, code = run_jobs(cmd + ["--expected"])
    expected = next((e for e in events if e["kind"] == "expected"), None)
    if expected is None:
        return nothing, ["no expected checksum (runner exited with %d%s)" %
                        (code, ", wall limit" if timed_out else "")], []
    loop = cmd + ["--seconds=%g" % seconds, "--trace=%d" % trace]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, expected["seed"]))
        if os.path.exists(spans_path):
            os.remove(spans_path)
        loop.append("--spans=" + spans_path)
    events, timed_out, peak_rss_kb, code = run_jobs(loop)
    failures = runner_outcome(events, code, timed_out)
    jobs = [e for e in events if e["kind"] == "job"]
    if not jobs:
        return nothing, failures + ["no job ran"], []
    spans = None
    if trace:
        spans = []
        if os.path.exists(spans_path):
            with open(spans_path) as f:
                spans = json.load(f)["spans"]
        else:
            failures.append("the job runner wrote no span file")
    result, more, notes = evaluate(workload, expected, jobs, peak_rss_kb,
                                   spans)
    if trace:
        notes.append("spans: " + os.path.relpath(spans_path, ROOT))
    result["correct"] = result["correct"] and not failures
    return result, failures + more, notes


def selftest():
    tests = build("perfbench_tests")
    code = subprocess.call([tests])
    env = dict(os.environ, PYTHONPATH=HERE)
    code |= subprocess.call([sys.executable, "-m", "unittest", "discover",
                             "-s", os.path.join(HERE, "tests")], env=env)
    return 1 if code else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the shipped workload's)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, failures, notes = run_workload(
            binary, name, args.seed, args.seconds, args.trace)
        for f in failures:
            log("perfbench: FAIL %s" % f)
        for n in notes:
            print(n)
        for metric, m in sorted(result["metrics"].items()):
            print("  %-32s %16.6g %s" % (metric, m["value"], m["unit"]))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
