"""The three benchmark workloads: set-up, one operation, and its checks.

Every workload uses the planes and model of the shipped
`configs/occlusion_transfer.yaml`, with `threads` resolved as the CLI does
(null -> os.cpu_count()). The workload seed replaces the scene seed and the
master seed; nothing else of the config changes. Each workload is a closed
loop: one caller, the next operation starts when the previous one returns.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hexplane import config as cfg
from hexplane import heads, metrics, projection, training
from hexplane.model import HexPlaneModel

from spans import patched

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "occlusion_transfer.yaml"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test runs the same code at tiny ones."""

    train_steps: int = 30  # steps per train_toy run; the shipped 300 take ~40 s
    # not observed traffic: a synthetic probe of the projection thread-pool
    # crossover (no shipped config or scene is above 2,000 points)
    project_points: int = 100_000
    setup_repeats: int = 9  # set-ups per run; cold, in fresh interpreters, when untraced


FULL = Sizes()
CHECK_PIXELS = 16  # per plane and kind of pixel sample (project_large)


@dataclass
class Tally:
    """Operations attempted and failed, plus the reference output later
    operations (and the traced run) must reproduce bit for bit."""

    attempted: int = 0
    failed: int = 0
    reference: object = None


class _Workload:
    """Config, plane specs and model config shared by the workloads.
    Subclasses set `cloud` and `points`, the cloud points one operation
    processes."""

    def __init__(self, seed):
        self.seed = seed % 2**31
        self.tree = cfg.load_config(CONFIG, {"seed": self.seed})
        self.tree["scene"]["seed"] = self.seed
        self.threads = self.tree["threads"] or os.cpu_count() or 1
        self.spec_fn = cfg.plane_spec_builder(self.tree["planes"])
        self.num_classes = cfg.scene_num_classes(self.tree)
        self.model_config = cfg.build_model_config(self.tree, self.num_classes)

    def warm_up(self):
        self.operation()

    def comparable(self, out):
        """The part of an output that must repeat bit for bit."""
        return out

    def projection_pairs(self, seconds):
        """Alternate serial and threaded `hexplane_project` on this
        workload's cloud. Returns (serial ns, threaded ns, mismatched pairs)."""
        specs = self.spec_fn(self.cloud)
        channels = self.model_config.raster_channels
        serial, threaded, mismatches = [], [], 0
        sides = [(1, serial), (self.threads, threaded)]
        deadline = time.perf_counter() + seconds
        while len(serial) < 5 or time.perf_counter() < deadline:
            outs = []
            for threads, times in sides if len(serial) % 2 == 0 else sides[::-1]:
                t0 = time.perf_counter_ns()
                outs.append(projection.hexplane_project(
                    self.cloud, specs, channels=channels, threads=threads))
                times.append(time.perf_counter_ns() - t0)
            if winners(outs[0]) != winners(outs[1]):
                mismatches += 1
        return serial, threaded, mismatches

    def measure(self, timer, seconds, reference=None):
        """Closed loop of single operations for `seconds` (at least one)."""
        tally = Tally(reference=reference)
        deadline = time.perf_counter() + seconds
        while tally.attempted == 0 or time.perf_counter() < deadline:
            tally.attempted += 1
            timer.begin()
            try:
                out = self.operation()
            except Exception:
                timer.abort()
                traceback.print_exc()
                tally.failed += 1
                continue
            timer.end()
            ok = self.check(out, tally.attempted)
            key = self.comparable(out)
            if tally.reference is None:
                if ok:
                    tally.reference = key
            else:
                ok = ok and _same(key, tally.reference)
            tally.failed += not ok
        return tally


def _same(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def winners(hexset):
    return tuple(p.index.winner.tobytes() for p in hexset.planes)


class TrainOcclusion(_Workload):
    """`training.train_toy` on the shipped config; one operation is one
    train step (re-projection, forward, composite loss, backward, AdamW)."""

    def __init__(self, seed, sizes):
        super().__init__(seed)
        self.cloud = cfg.build_scene(self.tree["scene"])
        self.eval_cloud = cfg.build_scene(self.tree["eval_scene"])
        self.points = self.cloud.n
        self.settings = dataclasses.replace(
            cfg.build_train_settings(self.tree), steps=sizes.train_steps)
        self.param_count = sum(
            p.size for p in HexPlaneModel(self.model_config).parameters().values())

    def _train(self, settings):
        return training.train_toy(
            self.cloud, self.model_config, settings, self.spec_fn,
            eval_cloud=self.eval_cloud, seed=self.tree["seed"], threads=self.threads,
        )

    def warm_up(self):
        self._train(dataclasses.replace(self.settings, steps=2))

    def measure(self, timer, seconds, reference=None):
        """Whole train_toy runs (at least one) while the next is expected to
        end within `seconds`; each step is timed from its learning-rate
        lookup to the end of its AdamW update."""
        tally = Tally(reference=reference)
        steps = self.settings.steps
        start, run_s = time.perf_counter(), 0.0
        while tally.attempted == 0 or time.perf_counter() - start + run_s <= seconds:
            run_start = time.perf_counter()
            losses, done = [], [0]
            lr_schedule, adamw_step = training.lr_schedule, training.adamw_step
            composite_loss = heads.composite_loss

            def step_start(step, total_steps, *args, **kwargs):
                if step < total_steps:  # the final evaluation also asks for an lr
                    timer.begin()
                return lr_schedule(step, total_steps, *args, **kwargs)

            def step_end(*args, **kwargs):
                state = adamw_step(*args, **kwargs)
                timer.end()
                done[0] += 1
                return state

            def loss(*args, **kwargs):
                result = composite_loss(*args, **kwargs)
                losses.append(result[0].total)
                return result

            hooks = [(training, "lr_schedule", step_start),
                     (training, "adamw_step", step_end),
                     (heads, "composite_loss", loss)]
            with patched(hooks):
                try:
                    self._train(self.settings)
                except Exception:
                    timer.abort()
                    traceback.print_exc()
            run_s = time.perf_counter() - run_start
            tally.attempted += steps
            failed = set(range(done[0], steps))
            for i, value in enumerate(losses[:steps]):
                if not math.isfinite(value):
                    failed.add(i)
                elif tally.reference is not None and value != tally.reference[i]:
                    failed.add(i)
            if done[0] == steps and not losses[-1] < losses[0]:
                failed.add(steps - 1)
            tally.failed += len(failed)
            if tally.reference is None and not failed:
                tally.reference = losses
        return tally


class EvalOcclusion(_Workload):
    """What `hexplane eval` computes with the shipped config: projection,
    model forward, argmax and confusion matrix on the builtin occlusion eval
    scene (1,931 points, fixed). The seed sets the model's initial weights,
    which stand in for a checkpoint; they do not change the cost."""

    def __init__(self, seed, sizes):
        super().__init__(seed)
        self.cloud = cfg.build_scene(self.tree["eval_scene"])
        self.points = self.cloud.n
        self.num_classes = max(self.num_classes, int(self.cloud.labels.max()) + 1)
        self.model_config = cfg.build_model_config(self.tree, self.num_classes)
        self.model = HexPlaneModel(self.model_config)
        self.param_count = sum(p.size for p in self.model.parameters().values())

    def operation(self):
        hexset = projection.hexplane_project(
            self.cloud, self.spec_fn(self.cloud), threads=self.threads)
        out = self.model.forward(self.cloud, hexset)
        preds = out.point_logits.argmax(axis=1)
        cm = metrics.ConfusionMatrix(self.num_classes).update(preds, self.cloud.labels)
        return out.point_logits, cm.counts

    def check(self, out, index):
        return bool(np.isfinite(out[0]).all())


class ProjectLarge(_Workload):
    """What `hexplane project` computes, before it writes its files, for a
    100,000-point cloud from the training scene recipe (as `hexplane synth
    --points 100000` makes it): projection and label images. No model."""

    param_count = 0

    def __init__(self, seed, sizes):
        super().__init__(seed)
        scene = dict(self.tree["scene"], num_points=sizes.project_points)
        self.cloud = cfg.build_scene(scene)
        self.points = self.cloud.n

    def operation(self):
        hexset = projection.hexplane_project(
            self.cloud, self.spec_fn(self.cloud), threads=self.threads)
        labels = projection.rasterize_labels(self.cloud, hexset)
        return hexset, labels

    def check(self, out, index):
        rng = np.random.default_rng([self.seed, index])
        return zbuffer_mismatches(out[0], rng, CHECK_PIXELS) == 0

    def comparable(self, out):
        hexset, labels = out
        return winners(hexset), labels


def zbuffer_mismatches(hexset, rng, k):
    """Sampled pixels whose winner or depth differs from a brute-force
    z-buffer: the in-FOV point of minimum depth, ties to the lowest index.

    Per plane the sample is the pixels of k random in-FOV points plus k
    uniformly random pixels, so both occupied and empty pixels are checked.
    """
    bad = 0
    for plane in hexset.planes:
        coords = plane.index.coords
        winner, zbuffer = plane.index.winner, plane.index.zbuffer
        h, w = winner.shape
        idx = np.flatnonzero(coords.in_fov)
        pix = (np.floor(coords.v[idx]).astype(np.int64) * w
               + np.floor(coords.u[idx]).astype(np.int64))
        picks = [rng.integers(0, h * w, k)]
        if idx.size:
            picks.append(pix[rng.integers(0, idx.size, k)])
        sample = np.unique(np.concatenate(picks))
        hit = np.isin(pix, sample)
        cand_idx, cand_pix = idx[hit], pix[hit]
        for p in sample:
            mine = cand_idx[cand_pix == p]
            if mine.size:
                depth = coords.depth[mine]
                want_z = depth.min()
                want_w = mine[depth == want_z].min()
            else:
                want_z, want_w = np.inf, projection.EMPTY
            if winner.flat[p] != want_w or zbuffer.flat[p] != want_z:
                bad += 1
    return bad


WORKLOADS = {
    "train_occlusion": TrainOcclusion,
    "eval_occlusion": EvalOcclusion,
    "project_large": ProjectLarge,
}
