"""Benchmark entry point.

    python3 perfbench/run.py --workload train_occlusion --seed 1 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics of one workload; with
--trace 1 it measures the per-layer metrics instead (see README.md). Metric
names and units come from BENCHMARK.json. Human-readable lines go first;
the last line of standard output is the JSON result. A record of the run,
with the environment and, for a traced run, every span, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# share of --seconds per phase of a traced run: alternating untraced and
# traced operations, then the serial-vs-threaded projection pairs
TRACE_PHASES = (0.8, 0.2)
# units of the summary lines printed before the result
SUMMARY_UNITS = {
    "ops": "count", "op_ms.p50": "ms", "op_ms.p90": "ms", "loss_final": "loss",
    "setup_runs": "count", "traced_ops": "count", "traced_op_ms.p50": "ms",
    "projection_pairs": "count", "fail_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_occlusion", "eval_occlusion", "project_large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def cold_setups(workload, seed, sizes):
    """Seconds of `sizes.setup_repeats` set-ups, each in a fresh interpreter
    (cold_setup.py), one after the other."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(HERE / "cold_setup.py"), workload, str(seed),
            json.dumps(dataclasses.asdict(sizes))]
    times = []
    for _ in range(sizes.setup_repeats):
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hexplane").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads": threads,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None, sizes=None):
    args = parse_args(argv)
    if not (SRC / "hexplane" / "__init__.py").is_file():
        print(f"error: no hexplane sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    import workloads

    sizes = sizes or workloads.FULL
    tracer = spans.Tracer() if args.trace else None
    # An untraced run times its set-ups cold, in fresh interpreters, then sets
    # up once more here. A traced run sets up here, traced, as often, so that
    # scene synthesis is recorded.
    setup_times = [] if tracer else cold_setups(args.workload, args.seed, sizes)
    with spans.patched(tracer.layer_patches() if tracer else []):
        for _ in range(sizes.setup_repeats if tracer else 1):
            wl = workloads.WORKLOADS[args.workload](args.seed, sizes)
            wl.warm_up()
    env = environment(args.seed, wl.threads)

    timer = spans.OpTimer()
    if tracer is None:
        tallies = [wl.measure(timer, args.seconds)]
    else:
        tallies = alternate(wl, timer, tracer, args.seconds * TRACE_PHASES[0])
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    op_ms = [ns / 1e6 for ns in timer.durations_ns] or [float("nan")]
    summary = {
        "ops": len(timer.durations_ns),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": percentile(op_ms, 90),
    }
    if isinstance(wl, workloads.TrainOcclusion) and tallies[0].reference:
        summary["loss_final"] = tallies[0].reference[-1]

    if tracer is None:
        values = {
            "op_ms.p50": summary["op_ms.p50"],
            "points_per_s": wl.points * len(op_ms) / (sum(op_ms) / 1e3),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        summary["setup_runs"] = len(setup_times)
    else:
        serial, threaded, mismatches = wl.projection_pairs(args.seconds * TRACE_PHASES[1])
        attempted += len(serial)
        failed += mismatches
        values = layer_values(tracer, wl)
        traced_p50 = statistics.median(tracer.durations_ns) / 1e6
        values["trace.overhead"] = traced_p50 / summary["op_ms.p50"] - 1.0
        values["projection.hexplane_project.serial_ms"] = statistics.median(serial) / 1e6
        values["projection.hexplane_project.threaded_ms"] = statistics.median(threaded) / 1e6
        summary.update({"traced_ops": len(tracer.durations_ns),
                        "traced_op_ms.p50": traced_p50, "projection_pairs": len(serial)})
    summary["fail_frac"] = failed / attempted

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {wl.threads}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in summary.items():
        print(f"  {key:40s} {value:.6g} {SUMMARY_UNITS[key]}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    write_record(args, env, summary, result, tracer)
    print(json.dumps(result))
    return 0


def alternate(wl, timer, tracer, seconds):
    """Untraced and traced operations in turn, so that drift in machine speed
    reaches both sides of `trace.overhead` alike. For train_occlusion the
    unit of alternation is a whole train_toy run. Every traced operation must
    reproduce the untraced reference output exactly."""
    patches = tracer.layer_patches()
    tallies, reference = [], None
    deadline = time.perf_counter() + seconds
    while not tallies or time.perf_counter() < deadline:
        tallies.append(wl.measure(timer, 0, reference))
        reference = tallies[-1].reference
        with spans.patched(patches):
            tallies.append(wl.measure(tracer, 0, reference))
    return tallies


def layer_values(tracer, wl):
    values = spans.layer_metrics(tracer)
    c = tracer.counters
    ops = max(len(tracer.op_roots), 1)
    in_fov = c.get("projection.in_fov", 0)
    values["projection.in_fov_frac"] = in_fov / c["projection.slots"] \
        if c.get("projection.slots") else 0.0
    values["projection.winner_frac"] = c.get("projection.winners", 0) / in_fov \
        if in_fov else 0.0
    values["attention.valid_frac"] = c.get("attention.valid", 0) / c["attention.slots"] \
        if c.get("attention.slots") else 0.0
    gflop = c.get("encoder.conv_flop", 0) / ops / 1e9
    conv_s = (values["ops.conv2d_forward.ms"] + values["ops.conv2d_backward.ms"]) / 1e3
    values["encoder.conv_gflop"] = gflop
    values["encoder.conv_gflops_per_s"] = gflop / conv_s if conv_s else 0.0
    values["training.param_count"] = wl.param_count
    return values


def write_record(args, env, summary, result, tracer):
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "summary": summary, "result": result}
    if tracer is not None:
        record["spans"] = {"fields": ["name", "start_ns", "end_ns", "parent"],
                           "op_roots": tracer.op_roots, "spans": tracer.spans}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
