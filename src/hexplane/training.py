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
from .projection import PLANE_KINDS, hexplane_project, rasterize_labels

ADAMW_EPS = 1e-8
WARMUP_FRAC, START_DIV, FINAL_DIV = 0.3, 25.0, 100.0  # see lr_schedule


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the step index."""

    def __init__(self, step, value):
        super().__init__(f"non-finite loss at step {step}: {value}")
        self.step = step


class NonFiniteGradientError(ValueError):
    """A gradient handed to the optimizer has a non-finite entry, or one whose
    square overflows the second-moment estimate."""


def adamw_init(params: dict) -> dict:
    """Zeroed first/second moment state plus the step counter."""
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adamw_step(params, grads, state, lr, weight_decay, beta1, beta2):
    """One decoupled-weight-decay adaptive-moment update, in place.

    p <- p - lr*wd*p - lr * m_hat / (sqrt(v_hat) + ADAMW_EPS), with
    bias-corrected moments. Parameters are visited in sorted-name order so
    updates are bit-reproducible.
    """
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(params):
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        # one finiteness check catches a nan or inf gradient and a finite one
        # whose square overflows the second moment
        with np.errstate(over="ignore"):
            v += (1.0 - beta2) * g * g
            v_hat = v / bc2
        if not np.all(np.isfinite(v_hat)):
            raise NonFiniteGradientError(
                f"gradient for parameter {name!r} is non-finite or overflows its second moment")
        update = (m / bc1) / (np.sqrt(v_hat) + ADAMW_EPS)
        p = params[name]
        p *= 1.0 - lr * weight_decay  # decoupled decay, exact multiplicative form
        p -= lr * update
    return state


def lr_schedule(step, total_steps, lr_max):
    """Single-peak schedule: linear warmup to lr_max, cosine decay after.

    Starts at lr_max/START_DIV, peaks at WARMUP_FRAC*total_steps, and decays
    to lr_max/FINAL_DIV at total_steps.
    """
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    lr_start = lr_max / START_DIV
    lr_final = lr_max / FINAL_DIV
    warm = WARMUP_FRAC * total_steps
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


def plane_inputs(model_config: ModelConfig, cloud: PointCloud, plane_spec_fn):
    """The hexplane set the model reads for `cloud`; None for a point-only
    model. Train and eval both project through here."""
    if not model_config.use_planes:
        return None
    return hexplane_project(cloud, plane_spec_fn(cloud))


def require_labels(cloud: PointCloud, role: str) -> PointCloud:
    """`cloud`, refused unless it carries labels; `role` names it."""
    if cloud.labels is None:
        raise ValueError(f"{role} cloud must be labeled")
    return cloud


def evaluate(model, cloud, plane_spec_fn, on_range_image=False) -> ConfusionMatrix:
    """The confusion of `model`'s argmax predictions on the labeled `cloud`:
    over every point, or over the cylindrical range image, where each
    occupied pixel scores its winner. A point-only model's cloud is projected
    only for the range image. The matrix spans the model's classes and the
    cloud's labels, so a labeled class the model never predicts is a miss.
    Train's eval records and `hexplane eval` both score here."""
    hexset = plane_inputs(model.config, cloud, plane_spec_fn)
    if hexset is None and on_range_image:
        hexset = hexplane_project(cloud, plane_spec_fn(cloud))
    preds = model.forward(cloud, hexset).point_logits.argmax(axis=1)
    scored = slice(None)
    if on_range_image:
        winner = hexset.planes[PLANE_KINDS.index("cylindrical")].index.winner
        scored = winner[winner >= 0]
    num_classes = max(model.config.num_classes, int(cloud.labels.max()) + 1)
    return ConfusionMatrix(num_classes).update(preds[scored], cloud.labels[scored])


def _train_step(model, params, state, train_cloud, settings, plane_spec_fn,
                aug_rng, step, lr):
    """One step: augment, re-project, forward, composite loss, backward and
    AdamW. Returns the loss report; the hexplane set dies once the labels
    are rasterized, and the forward cache, the gradients and the augmented
    cloud when it returns."""
    cloud = train_cloud
    if settings.augment:
        cloud = augment(
            train_cloud,
            flip_x=bool(aug_rng.integers(0, 2)),
            flip_y=bool(aug_rng.integers(0, 2)),
            rotate_z=float(aug_rng.uniform(0.0, 2.0 * math.pi)),
        )
    hexset = plane_inputs(model.config, cloud, plane_spec_fn)
    aux_logits, aux_labels = [], []
    out = model.forward(cloud, hexset, grad=True)
    if hexset is not None and settings.aux_weight > 0:
        aux_logits = out.aux_logits
        aux_labels = heads.aux_label_grids(
            rasterize_labels(cloud, hexset), model.config.num_classes
        )
    del hexset  # the forward cache keeps the rasters the encoder backward reads
    report, d_point, d_aux = heads.composite_loss(
        out.point_logits, cloud.labels, aux_logits, aux_labels, settings.aux_weight
    )
    if not math.isfinite(report.total):
        raise DivergenceError(step, report.total)

    grads = model.backward(out, d_point, d_aux)
    adamw_step(
        params, grads, state, lr,
        weight_decay=settings.weight_decay,
        beta1=settings.beta1, beta2=settings.beta2,
    )
    return report


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
    `threads` is accepted and ignored.
    """
    require_labels(train_cloud, "training")
    eval_cloud = train_cloud if eval_cloud is None else require_labels(eval_cloud, "evaluation")

    model = HexPlaneModel(model_config)
    params = model.parameters()
    state = adamw_init(params)
    aug_rng = np.random.default_rng(seed)
    log = []

    def eval_record(step, lr, report):
        scores = segmentation_scores(evaluate(model, eval_cloud, plane_spec_fn))
        log.append({
            "step": step,
            "lr": lr,
            "total": report.total if report else None,
            "main": report.main if report else None,
            "aux": list(report.aux) if report else None,
            "oa": scores.oa,
        })

    last_report = None
    for step in range(settings.steps):
        lr = lr_schedule(step, settings.steps, settings.lr_max)
        last_report = _train_step(model, params, state, train_cloud, settings,
                                  plane_spec_fn, aug_rng, step, lr)
        if settings.eval_every and (step + 1) % settings.eval_every == 0:
            eval_record(step + 1, lr, last_report)

    if not log or log[-1]["step"] != settings.steps:
        final_lr = lr_schedule(settings.steps, settings.steps, settings.lr_max)
        eval_record(settings.steps, final_lr, last_report)
    return TrainResult(model=model, log=log, final_oa=log[-1]["oa"])


def write_log(path, log) -> None:
    """One JSON object per eval interval, stable key order."""
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
