"""Segmentation and detection evaluation: IoU family and interpolated AP.

Per-class IoU is intersection over union of the prediction and label index
sets; mIoU and mAcc average over classes present in the ground truth. AP
averages interpolated precision p_interp(r) = max over recalls r' >= r of
the precision at r', over the recall values attained at true positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import UNLABELED

IGNORE = UNLABELED


class ConfusionMatrix:
    """K x K accumulator; rows are ground truth, columns are predictions."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError("need at least one class")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.ignored = 0

    def update(self, predictions, labels):
        """Tally a batch; samples labeled IGNORE are skipped."""
        predictions = np.asarray(predictions).reshape(-1)
        labels = np.asarray(labels).reshape(-1)
        if predictions.shape != labels.shape:
            raise ValueError("predictions/labels length mismatch")
        keep = labels != IGNORE
        self.ignored += int((~keep).sum())
        preds = predictions[keep]
        labs = labels[keep]
        k = self.num_classes
        if preds.size:
            if preds.min() < 0 or preds.max() >= k:
                raise ValueError("prediction class out of range")
            if labs.min() < 0 or labs.max() >= k:
                raise ValueError("label class out of range")
            flat = labs * k + preds
            self.counts += np.bincount(flat, minlength=k * k).reshape(k, k)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.num_classes != self.num_classes:
            raise ValueError("class count mismatch")
        self.counts += other.counts
        self.ignored += other.ignored
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class SegmentationScores:
    """per_class_iou is NaN for classes absent from both sets."""

    per_class_iou: np.ndarray
    miou: float
    macc: float
    oa: float


def segmentation_scores(cm: ConfusionMatrix) -> SegmentationScores:
    """IoU per class plus mIoU, mAcc, OA.

    Classes absent from the ground truth are excluded from the mIoU and
    mAcc means. Raises on an empty matrix.
    """
    counts = cm.counts
    if counts.sum() == 0:
        raise ValueError("empty confusion matrix")
    diag = np.diag(counts).astype(np.float64)
    gt_sizes = counts.sum(axis=1).astype(np.float64)
    pred_sizes = counts.sum(axis=0).astype(np.float64)
    union = gt_sizes + pred_sizes - diag
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, diag / np.where(union > 0, union, 1.0), np.nan)
        recall = diag / gt_sizes
    present = gt_sizes > 0
    miou = float(iou[present].mean())
    macc = float(recall[present].mean())
    oa = float(diag.sum() / counts.sum())
    return SegmentationScores(per_class_iou=iou, miou=miou, macc=macc, oa=oa)


# ---------------------------------------------------------------------------
# Precision/recall and interpolated average precision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PRCurve:
    """Ranked detections of one class.

    scores/is_tp are sorted by descending score, true positives before
    false positives within a score tie (stable beyond that), so equal-score
    reorderings of the input do not change the curve.
    """

    scores: np.ndarray
    is_tp: np.ndarray
    num_gt: int
    recalls: np.ndarray = field(init=False)
    precisions: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.num_gt < 1:
            raise ValueError("zero ground truth instances")
        scores = np.asarray(self.scores, dtype=np.float64)
        is_tp = np.asarray(self.is_tp, dtype=bool)
        order = np.lexsort((np.arange(scores.size), ~is_tp, -scores))
        scores = scores[order]
        is_tp = is_tp[order]
        tp = np.cumsum(is_tp)
        fp = np.cumsum(~is_tp)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_tp", is_tp)
        object.__setattr__(self, "recalls", tp / self.num_gt)
        object.__setattr__(
            self, "precisions", tp / np.maximum(tp + fp, 1)
        )


def average_precision(curve: PRCurve) -> float:
    """Mean of interpolated precision over the attained recall positions.

    p_interp at a recall position is the running maximum of precision from
    that position onward; positions are the recall values reached at each
    true positive. No true positives means zero.
    """
    tp_pos = np.where(curve.is_tp)[0]
    if tp_pos.size == 0:
        return 0.0
    # running max of precision from each rank to the end, evaluated at TPs
    p_interp = np.maximum.accumulate(curve.precisions[::-1])[::-1]
    return float(p_interp[tp_pos].mean())


def mean_average_precision(aps) -> float:
    """Arithmetic mean of per-class APs (classes with ground truth only)."""
    values = list(aps.values()) if isinstance(aps, dict) else list(aps)
    if not values:
        raise ValueError("no classes with ground truth")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Axis-aligned box matching (enough to exercise the AP pipeline)
# ---------------------------------------------------------------------------


def box_iou(a, b) -> float:
    """Volume IoU of two axis-aligned boxes (xmin..zmin, xmax..zmax)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.maximum(a[:3], b[:3])
    hi = np.minimum(a[3:], b[3:])
    inter = float(np.prod(np.maximum(hi - lo, 0.0)))
    vol_a = float(np.prod(a[3:] - a[:3]))
    vol_b = float(np.prod(b[3:] - b[:3]))
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def match_detections(pred_boxes, pred_scores, pred_classes, gt_boxes, gt_classes,
                     iou_threshold):
    """Greedy highest-score-first matching with single-use ground truth.

    Returns {class: PRCurve} for every class with at least one ground-truth
    box. Predictions for classes without ground truth are dropped.
    """
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64).reshape(-1, 6)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 6)
    pred_scores = np.asarray(pred_scores, dtype=np.float64)
    pred_classes = np.asarray(pred_classes)
    gt_classes = np.asarray(gt_classes)

    curves = {}
    for cls in sorted(set(gt_classes.tolist())):
        gt_idx = np.where(gt_classes == cls)[0]
        p_idx = np.where(pred_classes == cls)[0]
        order = p_idx[np.argsort(-pred_scores[p_idx], kind="stable")]
        used = np.zeros(gt_idx.size, dtype=bool)
        is_tp = np.zeros(order.size, dtype=bool)
        for rank, pi in enumerate(order):
            best_iou, best_j = 0.0, -1
            for j, gi in enumerate(gt_idx):
                if used[j]:
                    continue
                iou = box_iou(pred_boxes[pi], gt_boxes[gi])
                if iou > best_iou:
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou >= iou_threshold:
                used[best_j] = True
                is_tp[rank] = True
        curves[int(cls)] = PRCurve(
            scores=pred_scores[order], is_tp=is_tp, num_gt=int(gt_idx.size)
        )
    return curves


def detection_scores(pred_boxes, pred_scores, pred_classes, gt_boxes, gt_classes,
                     iou_threshold=0.25):
    """Per-class AP and their mean at one IoU threshold."""
    curves = match_detections(
        pred_boxes, pred_scores, pred_classes, gt_boxes, gt_classes, iou_threshold
    )
    aps = {cls: average_precision(curve) for cls, curve in curves.items()}
    return aps, mean_average_precision(aps)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "per_class_iou": {
            "type": "array",
            "items": {"type": ["number", "null"]},
        },
        "miou": {"type": "number"},
        "macc": {"type": "number"},
        "oa": {"type": "number"},
        "ap_per_class": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "map": {"type": ["number", "null"]},
    },
    "required": ["per_class_iou", "miou", "macc", "oa", "ap_per_class", "map"],
    "additionalProperties": False,
}


def report_json(scores: SegmentationScores, aps: dict | None = None) -> dict:
    """Metric report matching REPORT_SCHEMA; NaN IoUs become null."""
    per_class = [
        None if math.isnan(v) else float(v) for v in scores.per_class_iou
    ]
    ap_per_class = {str(k): float(v) for k, v in (aps or {}).items()}
    return {
        "per_class_iou": per_class,
        "miou": scores.miou,
        "macc": scores.macc,
        "oa": scores.oa,
        "ap_per_class": ap_per_class,
        "map": mean_average_precision(aps) if aps else None,
    }


def report_table(scores: SegmentationScores, aps: dict | None = None) -> str:
    """Plain-text table aligned with the JSON report."""
    lines = [f"{'class':>8} {'iou':>8}"]
    for k, v in enumerate(scores.per_class_iou):
        cell = "   -" if math.isnan(v) else f"{v:.4f}"
        lines.append(f"{k:>8} {cell:>8}")
    lines.append(f"{'miou':>8} {scores.miou:>8.4f}")
    lines.append(f"{'macc':>8} {scores.macc:>8.4f}")
    lines.append(f"{'oa':>8} {scores.oa:>8.4f}")
    if aps:
        for k in sorted(aps):
            lines.append(f"{f'ap[{k}]':>8} {aps[k]:>8.4f}")
        lines.append(f"{'map':>8} {mean_average_precision(aps):>8.4f}")
    return "\n".join(lines)
