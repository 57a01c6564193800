"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run print every
metric of BENCHMARK.json with its unit and pass their output checks, and
that an injected wrong output is counted as a failure. It also checks that
the benchmark refuses to run, without printing a result, when the sources
are missing. Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys

import run
import spans

TINY = dict(train_steps=6, project_points=3000, setup_repeats=1)


def bench(workload, trace, sizes):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], sizes=sizes)
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def rising_loss(composite_loss):
    calls = [0]

    def wrong(*args, **kwargs):
        report, d_point, d_aux = composite_loss(*args, **kwargs)
        calls[0] += 1
        return dataclasses.replace(report, total=report.total * calls[0]), d_point, d_aux

    return wrong


def nan_logits(forward):
    def wrong(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        out.point_logits[0, 0] = math.nan
        return out

    return wrong


def empty_winners(hexplane_project):
    def wrong(*args, **kwargs):
        hexset = hexplane_project(*args, **kwargs)
        hexset.planes[0].index.winner[...] = -1
        return hexset

    return wrong


def faults():
    """(workload, owner, attribute, wrong version) per workload."""
    from hexplane import heads, model, projection

    return [
        ("train_occlusion", heads, "composite_loss", rising_loss(heads.composite_loss)),
        ("eval_occlusion", model.HexPlaneModel, "forward", nan_logits(model.HexPlaneModel.forward)),
        ("project_large", projection, "hexplane_project",
         empty_winners(projection.hexplane_project)),
    ]


def check_bare_directory():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "project_large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), "bare directory ran"


def main():
    sys.path.insert(0, str(run.SRC))
    import workloads

    sizes = workloads.Sizes(**TINY)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace, sizes)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics/units differ"
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok   {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")
    for workload, owner, attr, wrong in faults():
        with spans.patched([(owner, attr, wrong)]):
            result = bench(workload, 0, sizes)
        assert not result["correct"] and result["failed"] > 0, (workload, result)
        print(f"ok   {workload} injected fault: {result['failed']} of "
              f"{result['attempted']} operations failed")
    check_bare_directory()
    print("ok   bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
