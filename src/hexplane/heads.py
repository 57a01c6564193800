"""Point-level and per-plane segmentation heads plus the composite loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .cloud import UNLABELED
from .encoder import FUSE_STRIDE, feature_grid

IGNORE = UNLABELED


# class logits x @ w + b per point, (N, K), and per fused-map pixel,
# (H_f, W_f, K); two names, so that a profiler can tell the heads apart
point_head_forward = aux_head_forward = ops.linear_forward
point_head_backward = aux_head_backward = ops.linear_backward


@dataclass(frozen=True)
class LossReport:
    """Decomposition of one training objective evaluation.

    total == main + aux_weight * sum(aux) by construction, for the
    aux_weight passed to `composite_loss`.
    """

    total: float
    main: float
    aux: tuple


def composite_loss(point_logits, point_labels, aux_logits, aux_labels, aux_weight):
    """Main point loss plus weighted per-plane pixel losses.

    aux_logits/aux_labels are parallel lists (possibly empty); pixels and
    points labeled IGNORE are skipped, and a plane with nothing to supervise
    contributes zero. Returns (LossReport, d_point_logits, [d_aux_logits]).

    Raises if there is no supervision signal anywhere.
    """
    if aux_weight < 0:
        raise ValueError("aux_weight must be >= 0")
    if len(aux_logits) != len(aux_labels):
        raise ValueError("aux logits/labels length mismatch")

    main, d_point, n_main = ops.softmax_cross_entropy(point_logits, point_labels)
    aux_terms, d_aux, supervised = [], [], n_main
    for logits, labels in zip(aux_logits, aux_labels):
        k = logits.shape[-1]
        loss, dflat, count = ops.softmax_cross_entropy(
            logits.reshape(-1, k), labels.reshape(-1))
        aux_terms.append(loss)
        d_aux.append(aux_weight * dflat.reshape(logits.shape))
        supervised += count
    if supervised == 0:
        raise ValueError("all labels are IGNORE; nothing to supervise")

    total = main + aux_weight * sum(aux_terms)
    return LossReport(float(total), float(main), tuple(aux_terms)), d_point, d_aux


def downsample_labels(label_image, num_classes):
    """Majority-vote pooling of a label image onto its feature grid, one
    FUSE_STRIDE x FUSE_STRIDE block per cell.

    IGNORE pixels do not vote; blocks with no votes stay IGNORE; vote ties
    go to the smallest class id. The image is padded with IGNORE so partial
    edge blocks are handled.
    """
    h, w = label_image.shape
    (out_h, out_w), block = feature_grid(h, w), FUSE_STRIDE
    padded = np.full((out_h * block, out_w * block), IGNORE, dtype=np.int64)
    padded[:h, :w] = label_image
    blocks = padded.reshape(out_h, block, out_w, block).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(out_h, out_w, block * block)
    votes = np.zeros((out_h, out_w, num_classes), dtype=np.int64)
    for k in range(num_classes):
        votes[:, :, k] = (blocks == k).sum(axis=2)
    out = votes.argmax(axis=2)  # argmax takes the first (smallest) max
    out[votes.sum(axis=2) == 0] = IGNORE
    return out


def aux_label_grids(label_images, num_classes):
    """Each plane's label image pooled onto its fused feature grid."""
    return [downsample_labels(img, num_classes) for img in label_images]
