#!/usr/bin/env python3
"""The xvu benchmark: build, run one workload, check, report.

    python3 xvubench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 xvubench/run.py --write-benchmark-json

Run from the repository root. The first call builds libxvu and the binary
(xvubench/src) in Release mode under $CARGO_TARGET_DIR/xvubench (default
.bench_build/xvubench); later calls rebuild only what changed. The binary
runs the workload against libxvu's public API and checks its outputs.
This script then adds the metrics derived from the trace (--trace 1),
prints a report of every metric with its unit and sample count, writes the
full result, trace and span self-time table under the build directory's
results/, and prints the result as one JSON line, the last line of stdout.
It exits 0 only when every correctness check passed. README.md in this
directory documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_SECONDS = 30

WORKLOADS = [
    ("batch_insert",
     "translation and subtree publish dominate; XPath runs once per batch"),
    ("single_op_mixed",
     "per-op W1/W2/W3 writes: a full XPath eval each, SAT on buddy inserts"),
    ("snapshot_read",
     "open-loop snapshot reads beside a writer: epoch rebuild and evaluator"),
]

# Gated end-to-end metrics: reported by every workload.
# (name, unit, better, bound)
# The timing bounds are wide because run-to-run speed on a shared 4-core
# VM drifts by 5-10% (a pure ALU loop varies that much); see README.md.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.1),
    ("write_ops_per_s", "1/s", "higher", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_tail_ms", "ms", "lower", 0.25),
]

# End-to-end metrics as each workload reports them by name (the gated
# request_* metrics above alias write_* or read_* per workload).
REPORTED = {
    "batch_insert": ["setup_s", "rss_peak_mb", "failed_ratio",
                     "write_ops_per_s", "write_p50_ms", "write_p90_ms"],
    "single_op_mixed": ["setup_s", "rss_peak_mb", "failed_ratio",
                        "write_ops_per_s", "write_p50_ms", "write_p90_ms"],
    "snapshot_read": ["setup_s", "rss_peak_mb", "failed_ratio",
                      "write_ops_per_s", "write_p50_ms", "read_p50_ms",
                      "read_p99_ms"],
}
REPORTED_UNITS = {
    "failed_ratio": "ratio", "write_p90_ms": "ms", "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}

# Per-layer metrics, reported with --trace 1 on every workload (0 with 0
# samples where the layer does not run). (name, unit, better)
PER_LAYER = [
    ("xpath.parse_us_per_op", "us", "lower"),
    ("evaluator.ms_per_op", "ms", "lower"),
    ("evaluator.fresh_evals", "1/op", "lower"),
    ("evaluator.cache_hit_ratio", "ratio", "higher"),
    ("evaluator.delta_patches", "1/op", "lower"),
    ("evaluator.fallback_evals", "1/op", "lower"),
    ("pipeline.validate_ms", "ms", "lower"),
    ("pipeline.eval_ms", "ms", "lower"),
    ("pipeline.conflicts_ms", "ms", "lower"),
    ("pipeline.translate_ms", "ms", "lower"),
    ("pipeline.apply_ms", "ms", "lower"),
    ("pipeline.maintain_ms", "ms", "lower"),
    ("pipeline.unattributed_share", "ratio", "lower"),
    ("viewupdate.translate_ms_per_op", "ms", "lower"),
    ("viewupdate.symbolic_candidates", "1/op", "lower"),
    ("viewupdate.delta_v_rows", "1/op", "lower"),
    ("viewupdate.delta_r_rows", "1/op", "lower"),
    ("viewupdate.connect_rows_ms", "ms", "lower"),
    ("publisher.subtree_edges", "1/op", "lower"),
    ("sat.ms_total", "ms", "lower"),
    ("sat.runs", "1/op", "lower"),
    ("sat.conflicts", "1/op", "lower"),
    ("sat.flips", "1/op", "lower"),
    ("sat.walksat_win_ratio", "ratio", "higher"),
    ("maintenance.ms_per_op", "ms", "lower"),
    ("maintenance.journal_entries", "1/op", "lower"),
    ("maintenance.m_pairs", "count", "lower"),
    ("snapshot.acquire_ms_p50", "ms", "lower"),
    ("snapshot.acquire_ms_p99", "ms", "lower"),
    ("snapshot.eval_ms_p50", "ms", "lower"),
    ("snapshot.eval_ms_p99", "ms", "lower"),
    ("snapshot.state_rebuilds", "1/op", "lower"),
    ("snapshot.carry_forwards", "1/op", "higher"),
    ("snapshot.memo_hit_ratio", "ratio", "higher"),
    ("snapshot.rebuild_ms", "ms", "lower"),
    ("propagate.op_ms_p50", "ms", "lower"),
    ("pool.jobs", "1/op", "higher"),
    ("pool.busy_share", "ratio", "higher"),
    ("writer.queue_ms_p50", "ms", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("op.insert_ms_p50", "ms", "lower"),
    ("op.delete_ms_p50", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("failed_ratio", "ratio", "lower"),
]

UNITS = dict(REPORTED_UNITS)
UNITS.update({name: unit for name, unit, _, _ in END_TO_END})
UNITS.update({name: unit for name, unit, _ in PER_LAYER})

# batch.phase.<p> span -> pipeline.<p>_ms
PIPELINE_PHASES = ["validate", "eval", "conflicts", "translate", "apply",
                   "maintain"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "xvubench")


def build(out_dir):
    """Configures and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    fresh = not os.path.exists(os.path.join(out_dir, "CMakeCache.txt"))
    if fresh and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_cmd = ["cmake", "--build", out_dir, "--parallel", jobs]
    for cmd in (configure, compile_cmd):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("xvubench: build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out_dir, "xvubench")
    return binary if os.path.exists(binary) else None


def span_self_times(trace_path):
    """Per span name: count, total and self time (ms). A span's self time
    is its duration minus the part of it its child spans (spans nested in
    it on the same thread) cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    table = {}
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack, finished = [], []  # entries: [end_us, event, covered_us]
        for e in spans:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][0] <= start + 1e-3:
                finished.append(stack.pop())
            if stack:
                parent = stack[-1]
                parent[2] += min(end, parent[0]) - start
            stack.append([end, e, 0.0])
        finished.extend(stack)
        for _, e, covered in finished:
            row = table.setdefault(e["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += e["dur"] / 1e3
            row[2] += max(0.0, e["dur"] - covered) / 1e3
    return table


def trace_metrics(table, provenance):
    """The per-layer metrics measured from the traced run's spans."""
    def total(name):
        return table.get(name, [0, 0.0, 0.0])[1]

    def count(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    out = {}
    batches = count("op.batch")
    for phase in PIPELINE_PHASES:
        span = "batch.phase." + phase
        out["pipeline.%s_ms" % phase] = (
            total(span) / batches if batches else 0.0, count(span))
    out["viewupdate.connect_rows_ms"] = (
        total("batch.connect_rows") / batches if batches else 0.0,
        count("batch.connect_rows"))
    rebuilds = count("snapshot.state_rebuild")
    out["snapshot.rebuild_ms"] = (
        total("snapshot.state_rebuild") / rebuilds if rebuilds else 0.0,
        rebuilds)
    lanes_time = provenance["worker_threads"] * total("op.batch")
    out["pool.busy_share"] = (
        total("pool.drain") / lanes_time if lanes_time > 0 else 0.0,
        count("pool.drain"))
    return out


def write_benchmark_json():
    doc = {
        "command": ["python3", "xvubench/run.py"],
        "paths": ["xvubench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    log("wrote " + path)


def fmt(value):
    return "%.6g" % value


def report(args, raw, metrics, table, result_path):
    p = raw["provenance"]
    print("xvubench %s  seed=%d  seconds=%g  trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  provenance: nproc=%d threads=%d worker_threads=%d compiler=%s "
          "build=%s |C|=%d" % (p["nproc"], p["threads"], p["worker_threads"],
                               p["compiler"], p["build_type"], p["num_c"]))
    print("  shape: " + p["shape"])
    print("  outcome: correct=%s attempted=%d failed=%d rejected=%d "
          "errored=%d" % (raw["correct"], raw["attempted"], raw["failed"],
                          raw["rejected"], raw["errored"]))
    for e in raw["errors"]:
        print("  error: " + e)

    def row(name):
        m = metrics.get(name)
        if m is None:
            return
        print("    %-32s %14s %-6s n=%d" %
              (name, fmt(m["value"]), UNITS[name], m["samples"]))

    print("  end-to-end:")
    for name in REPORTED[args.workload]:
        row(name)
    print("  gated (BENCHMARK.json end_to_end):")
    for name, _, _, _ in END_TO_END:
        row(name)
    if args.trace:
        print("  per-layer:")
        for name, _, _ in PER_LAYER:
            row(name)
        print("  span self time (traced run, top 15 by self ms):")
        print("    %-28s %8s %12s %12s" % ("span", "count", "total_ms",
                                            "self_ms"))
        for name, (n, tot, own) in sorted(table.items(),
                                          key=lambda kv: -kv[1][2])[:15]:
            print("    %-28s %8d %12.3f %12.3f" % (name, n, tot, own))
    print("  full result: " + os.path.relpath(result_path, ROOT))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="write BENCHMARK.json from this script's catalogue")
    args = ap.parse_args()
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", stem + ".trace.json"]
    # Set-up, inputs and the gate take ~15 s beyond each timed window.
    timeout = (2 if args.trace else 1) * (args.seconds + 30) + 30
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("xvubench: benchmark binary timed out after %d s" % timeout)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("xvubench: benchmark binary exited with %d" % proc.returncode)
        return 2
    raw = json.loads(lines[-1])

    metrics = {name: dict(m) for name, m in raw["metrics"].items()}
    table = {}
    if args.trace:
        table = span_self_times(raw["trace_file"])
        for name, (value, n) in trace_metrics(
                table, raw["provenance"]).items():
            metrics[name] = {"value": value, "samples": n}
        with open(stem + ".spans.tsv", "w") as f:
            f.write("span\tcount\ttotal_ms\tself_ms\n")
            for name, (n, tot, own) in sorted(table.items()):
                f.write("%s\t%d\t%.6f\t%.6f\n" % (name, n, tot, own))
    for name, _, _ in PER_LAYER:
        metrics.setdefault(name, {"value": 0.0, "samples": 0})
    for name, m in metrics.items():
        m["unit"] = UNITS.get(name, "")

    full = dict(raw)
    full["metrics"] = metrics
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=2, sort_keys=True)
    report(args, raw, metrics, table, stem + ".json")

    names = ([n for n, _, _ in PER_LAYER] if args.trace
             else [n for n, _, _, _ in END_TO_END])
    missing = [n for n in names if n not in metrics]
    if missing:
        log("xvubench: benchmark binary reported no " + ", ".join(missing))
        return 2
    correct = bool(raw["correct"])
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": UNITS[n]}
                    for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
