"""Decoupled-weight-decay optimizer, one-cycle style schedule, and the
desk-scale training loop over synthetic scenes."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import heads
from .cloud import PointCloud, augment
from .metrics import ConfusionMatrix, segmentation_scores
from .model import HexPlaneModel, ModelConfig
from .projection import hexplane_project, rasterize_labels


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the step index."""

    def __init__(self, step, value):
        super().__init__(f"non-finite loss at step {step}: {value}")
        self.step = step


class NonFiniteGradientError(ValueError):
    """A gradient handed to the optimizer has a non-finite entry."""


def adamw_init(params: dict) -> dict:
    """Zeroed first/second moment state plus the step counter."""
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adamw_step(params, grads, state, lr, weight_decay=0.01,
               beta1=0.9, beta2=0.999, eps=1e-8):
    """One decoupled-weight-decay adaptive-moment update, in place.

    p <- p - lr*wd*p - lr * m_hat / (sqrt(v_hat) + eps) with bias-corrected
    moments. Parameters are visited in sorted-name order so updates are
    bit-reproducible.
    """
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(params):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p = params[name]
        p *= 1.0 - lr * weight_decay  # decoupled decay, exact multiplicative form
        p -= lr * update
    return state


def lr_schedule(step, total_steps, lr_max, warmup_frac=0.3,
                start_div=25.0, final_div=100.0):
    """Single-peak schedule: linear warmup to lr_max, cosine decay after.

    Starts at lr_max/start_div, peaks at warmup_frac*total_steps, and decays
    to lr_max/final_div at total_steps.
    """
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    lr_start = lr_max / start_div
    lr_final = lr_max / final_div
    warm = warmup_frac * total_steps
    if total_steps == 0 or step <= warm:
        t = step / warm if warm > 0 else 1.0
        return lr_start + t * (lr_max - lr_start)
    s = (step - warm) / (total_steps - warm)
    return lr_final + 0.5 * (lr_max - lr_final) * (1.0 + math.cos(math.pi * s))


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 300
    lr_max: float = 3.5e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    aux_weight: float = 0.4
    eval_every: int = 50
    augment: bool = False


@dataclass
class TrainResult:
    model: HexPlaneModel
    log: list  # one dict per eval interval
    final_oa: float


def _evaluate(model, cloud, plane_spec_fn, threads=1):
    hexset = None
    if model.config.use_planes:
        hexset = hexplane_project(
            cloud, plane_spec_fn(cloud), channels=model.config.raster_channels,
            threads=threads,
        )
    out = model.forward(cloud, hexset)
    preds = out.point_logits.argmax(axis=1)
    cm = ConfusionMatrix(model.config.num_classes)
    cm.update(preds, cloud.labels)
    return segmentation_scores(cm)


def train_toy(
    train_cloud: PointCloud,
    model_config: ModelConfig,
    settings: TrainSettings,
    plane_spec_fn,
    eval_cloud: PointCloud | None = None,
    seed: int = 0,
    threads: int = 1,
):
    """Full-scene gradient descent on one synthetic cloud.

    plane_spec_fn(cloud) must return the six plane specs for a (possibly
    augmented) cloud. Each step re-projects, runs the model, applies the
    composite loss, and takes one optimizer step; the run is a pure function
    of its inputs. Raises DivergenceError if the loss goes non-finite.
    """
    if train_cloud.labels is None:
        raise ValueError("training cloud must be labeled")
    eval_cloud = train_cloud if eval_cloud is None else eval_cloud

    model = HexPlaneModel(model_config)
    params = model.parameters()
    state = adamw_init(params)
    aug_rng = np.random.default_rng(seed)
    log = []

    def eval_record(step, lr, report):
        scores = _evaluate(model, eval_cloud, plane_spec_fn, threads)
        record = {
            "step": step,
            "lr": lr,
            "total": report.total if report else None,
            "main": report.main if report else None,
            "aux": list(report.aux) if report else None,
            "oa": scores.oa,
        }
        log.append(record)
        return record

    last_report = None
    for step in range(settings.steps):
        lr = lr_schedule(step, settings.steps, settings.lr_max)
        cloud = train_cloud
        if settings.augment:
            cloud = augment(
                train_cloud,
                flip_x=bool(aug_rng.integers(0, 2)),
                flip_y=bool(aug_rng.integers(0, 2)),
                rotate_z=float(aug_rng.uniform(0.0, 2.0 * math.pi)),
            )
        hexset = None
        aux_labels = []
        if model_config.use_planes:
            hexset = hexplane_project(
                cloud, plane_spec_fn(cloud), channels=model_config.raster_channels,
                threads=threads,
            )
            if settings.aux_weight > 0:
                label_images = rasterize_labels(cloud, hexset)
                aux_labels = [
                    heads.downsample_labels(
                        img,
                        (img.shape[0] + 3) // 4,
                        (img.shape[1] + 3) // 4,
                        model_config.num_classes,
                    )
                    for img in label_images
                ]

        out = model.forward(cloud, hexset)
        if settings.aux_weight > 0 and model_config.use_planes:
            report, d_point, d_aux = heads.composite_loss(
                out.point_logits, cloud.labels, out.aux_logits, aux_labels,
                settings.aux_weight,
            )
        else:
            report, d_point, _ = heads.composite_loss(
                out.point_logits, cloud.labels, [], [], settings.aux_weight
            )
            d_aux = None
        if not math.isfinite(report.total):
            raise DivergenceError(step, report.total)
        last_report = report

        grads = model.backward(out, d_point, d_aux)
        adamw_step(
            params, grads, state, lr,
            weight_decay=settings.weight_decay,
            beta1=settings.beta1, beta2=settings.beta2,
        )

        if settings.eval_every and (step + 1) % settings.eval_every == 0:
            eval_record(step + 1, lr, report)

    if not log or log[-1]["step"] != settings.steps:
        final_lr = lr_schedule(settings.steps, settings.steps, settings.lr_max)
        eval_record(settings.steps, final_lr, last_report)
    return TrainResult(model=model, log=log, final_oa=log[-1]["oa"])


def write_log(path, log) -> None:
    """One JSON object per eval interval, stable key order."""
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
