"""Differentiable numeric primitives (forward + explicit backward).

All tensors are float64 and channels-last; images are (H, W, C). Every
forward returns (output, cache) and the matching backward consumes the
upstream gradient plus the cache, so the whole pipeline can be checked
against central finite differences.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .cloud import UNLABELED


# points per block of the per-point work whose temporaries would otherwise
# grow with the point count: the bilinear sample's taps, the attention
# forward and backward, and an inference forward's `HexPlaneModel.point_step`
# (the point encoder's tail, offsets, plane gather, attention, point head).
# Every such loop takes its blocks from `row_blocks`, so per-point results
# have the same bits in any block; every sum over the points stays one
# whole-batch product.
POINT_BLOCK = 256


def row_blocks(n, block=POINT_BLOCK):
    """Slices of `block` rows covering range(n) in order, where a one-row
    rest joins the block before it: numpy multiplies a one-row matrix
    through BLAS gemv, whose sums can differ in the last bit from the same
    row's in a larger product. So a slice has one row only when n == 1, and
    the largest has at most block + 1."""
    start = 0
    while start < n:
        stop = start + block if n - start - block > 1 else n
        yield slice(start, stop)
        start = stop


# ---------------------------------------------------------------------------
# Dense / elementwise
# ---------------------------------------------------------------------------


def linear_forward(x, w, b):
    """y = x @ w + b. x may have any leading shape; w is (C_in, C_out)."""
    return x @ w + b, (x, w)


def linear_backward(grad, cache):
    """Returns (dx, dw, db)."""
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    g2 = grad.reshape(-1, grad.shape[-1])
    dx = (g2 @ w.T).reshape(x.shape)
    return dx, x2.T @ g2, g2.sum(axis=0)


LEAKY_SLOPE = 0.1  # in (0, 1], so that max(x, slope * x) is the rectifier


def leaky_relu_forward(x):
    """max(x, LEAKY_SLOPE * x): the same values as the rectifier's `np.where`
    form, -0.0, infinities and NaN included, without `np.where`'s slower path."""
    y = LEAKY_SLOPE * x
    return np.maximum(x, y, out=y), x >= 0


def leaky_relu_backward(grad, cache):
    # one factor per element, 1.0 where x >= 0: grad * 1.0 is grad exactly
    return grad * np.array([LEAKY_SLOPE, 1.0])[cache.view(np.uint8)]


# ---------------------------------------------------------------------------
# Strided 3x3 convolution via im2col
# ---------------------------------------------------------------------------


CONV_STRIDE = 2
CONV_PAD = 1  # with a 3x3 kernel, an h-wide input gives ceil(h / 2) outputs


def im2col(x, kh, kw):
    """The (out_h * out_w, kh * kw * C) window matrix of x (H, W, C) zero-padded
    by CONV_PAD: one copy of the (out_h, out_w, kh, kw * C) strided window
    view, whose last axis is a window row's kw pixels, contiguous in the
    channels-last padded image. Returns (cols, (out_h, out_w))."""
    h, wd, c = x.shape
    hp, wp = h + 2 * CONV_PAD, wd + 2 * CONV_PAD
    out_h, out_w = (hp - kh) // CONV_STRIDE + 1, (wp - kw) // CONV_STRIDE + 1
    padded = np.zeros((hp, wp, c))
    padded[CONV_PAD : CONV_PAD + h, CONV_PAD : CONV_PAD + wd] = x
    s_r, s_c, s_ch = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (out_h, out_w, kh, kw * c),
        (CONV_STRIDE * s_r, CONV_STRIDE * s_c, s_r, s_ch), writeable=False)
    return windows.reshape(out_h * out_w, kh * kw * c), (out_h, out_w)


def conv2d_forward(x, w, b):
    """2D convolution, x (H, W, C_in), w (kh, kw, C_in, C_out), b (C_out,).

    The cache holds x, not its im2col matrix: the backward rebuilds that from
    x, which must not be written to in between, so a forward that is never
    differentiated (eval) keeps no derived copy."""
    kh, kw, wc_in, c_out = w.shape
    if wc_in != x.shape[2]:
        raise ValueError(f"kernel expects {wc_in} input channels, image has {x.shape[2]}")
    cols, (out_h, out_w) = im2col(x, kh, kw)
    wmat = w.reshape(kh * kw * wc_in, c_out)
    y = cols @ wmat
    y += b
    # the weight shape stays at index 2: the benchmark's FLOP counter reads it
    return y.reshape(out_h, out_w, c_out), (x, wmat, w.shape)


def conv2d_backward(grad, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None, and not computed, without input_grad."""
    x, wmat, wshape = cache
    h, wd, c_in = x.shape
    kh, kw, _, c_out = wshape
    cols, (out_h, out_w) = im2col(x, kh, kw)
    g2 = grad.reshape(-1, c_out)
    dw = (cols.T @ g2).reshape(wshape)
    db = g2.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dcols = (g2 @ wmat.T).reshape(out_h, out_w, kh, kw, c_in)
    # col2im: within one kernel tap the target pixels are disjoint, so each
    # tap is a plain strided slice-add
    dpadded = np.zeros((h + 2 * CONV_PAD, wd + 2 * CONV_PAD, c_in))
    for ki in range(kh):
        for kj in range(kw):
            dpadded[
                ki : ki + CONV_STRIDE * out_h : CONV_STRIDE,
                kj : kj + CONV_STRIDE * out_w : CONV_STRIDE,
            ] += dcols[:, :, ki, kj]
    dx = dpadded[CONV_PAD : CONV_PAD + h, CONV_PAD : CONV_PAD + wd]
    return dx, dw, db


# ---------------------------------------------------------------------------
# Row scatter-add
# ---------------------------------------------------------------------------


def scatter_groups(ids, groups, n_rows, width):
    """Row scatter-add of column groups: `groups` yields the columns of
    (K, G * width) values `width` at a time, each (K, width), and the result
    is their (n_rows, G * width) sums, row ids[i] taking row i. Every group
    goes through one (K, width) bin table, and a group may be made only when
    it is reached, so that no (K, G * width) array need exist.

    Bit-identical to numpy's unbuffered `ufunc.at` scatter-add: bincount adds
    each bin's weights in input order starting from zero, just as that does,
    and runs several times faster.
    """
    bins = np.add.outer(ids * width, np.arange(width)).ravel()
    sums = []
    for group in groups:
        sums.append(np.bincount(bins, weights=group.ravel(), minlength=n_rows * width)
                    .reshape(n_rows, width))
        del group  # so that a group made on demand dies before the next is made
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


# ---------------------------------------------------------------------------
# Bilinear resize (endpoint-aligned) and bilinear point sampling
# ---------------------------------------------------------------------------


def _axis_taps(n_in, n_out):
    """Source taps for endpoint-aligned resampling; exact on linear ramps."""
    if n_out == 1 or n_in == 1:
        src = np.zeros(n_out)
    else:
        src = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    return i0, i1, w1


@lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out):
    """(n_out, n_in) endpoint-aligned interpolation matrix; read-only."""
    i0, i1, w1 = _axis_taps(n_in, n_out)
    rows = np.arange(n_out)
    r = np.zeros((n_out, n_in))
    r[rows, i0] = 1.0 - w1
    r[rows, i1] += w1
    r.setflags(write=False)
    return r


def bilinear_resize_forward(x, out_h, out_w):
    """Separable bilinear resize of (H, W, C) to (out_h, out_w, C).

    Each axis is one product with a cached interpolation matrix, so the
    output is R_h @ x @ R_w.T applied per channel.
    """
    h, w, c = x.shape
    r_h, r_w = _interp_matrix(h, out_h), _interp_matrix(w, out_w)
    rows = (r_h @ x.reshape(h, w * c)).reshape(out_h, w, c)
    return np.matmul(r_w, rows), (r_h, r_w)


def bilinear_resize_backward(grad, cache):
    """Transpose of the forward: the same two products with R_w.T and R_h.T."""
    r_h, r_w = cache
    cols = np.matmul(r_w.T, grad)                     # (out_h, W, C)
    out_h, w, c = cols.shape
    return (r_h.T @ cols.reshape(out_h, w * c)).reshape(-1, w, c)


def bilinear_sample_forward(table, u, v, grid):
    """Sample maps stacked in a (rows, C) table at fractional grid
    coordinates; integer (u, v) hit nodes.

    With `grid` = (base, h, w), each sample reads the h x w map stored
    row-major from table row `base` on; the three broadcast against u and v.
    Coordinates are clamped to the map, so queries on or past the border
    read the edge value. u and v have at least one axis, and the output has
    shape u.shape + (C,). The cache is the taps, x0, x1, y0, y1 and fx, fy;
    those of the samples from one map, with that map's (h, w, C), are the
    cache `bilinear_sample_backward` reads.
    """
    base, h, w = grid
    x = np.clip(u, 0.0, w - 1.0)
    y = np.clip(v, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[..., None]
    fy = (y - y0)[..., None]
    taps = [(base + row * w + col, weight) for row, col, weight in (
        (y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
        (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx))]
    # ((A + B) + C) + D a block of rows at a time, each tap scaled in place
    # in one reused block buffer, so no temporary grows with the rows.
    # Every index is in range, so "clip" changes no value; it lets `take`
    # write to `out` without a buffer.
    out = np.empty(taps[0][0].shape + (table.shape[1],))
    blocks = list(row_blocks(len(out)))
    tap = np.empty((max((b.stop - b.start for b in blocks), default=0),) + out.shape[1:])
    (first, first_weight), *rest = taps
    for rows in blocks:
        acc = out[rows]
        part = tap[:len(acc)]
        np.take(table, first[rows], axis=0, out=acc, mode="clip")
        acc *= first_weight[rows]
        for ids, weight in rest:
            np.take(table, ids[rows], axis=0, out=part, mode="clip")
            part *= weight[rows]
            acc += part
    return out, (x0, x1, y0, y1, fx, fy)


SCATTER_GROUP = 8  # most columns per bin-table group: sample backward, voxel pool


def bilinear_sample_backward(grad, cache):
    """Scatter the sample gradient back onto the feature map.

    The tap products are written group-major, as the C columns' groups of
    gcd(C, SCATTER_GROUP), so that the scatter's bin table is (4N, group),
    not (4N, C). Each bin still adds its terms in the same order from zero,
    so the sums have the same bits as one scatter of every column."""
    (h, w, c), x0, x1, y0, y1, fx, fy = cache
    ids = np.concatenate([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    group = math.gcd(c, SCATTER_GROUP)
    # one buffer, no large temporaries; each tap keeps the left-to-right
    # rounding of grad * (1 - fy) * (1 - fx) and its three siblings
    vals = np.empty((c // group, 4) + grad.shape[:-1] + (group,))
    taps = np.moveaxis(vals, 0, -2)  # (4,) + grad.shape with C split in groups
    grad = grad.reshape(grad.shape[:-1] + (c // group, group))
    fx, fy = fx[..., None], fy[..., None]
    np.multiply(grad, 1 - fy, out=taps[0])
    np.multiply(taps[0], fx, out=taps[1])
    taps[0] *= 1 - fx
    np.multiply(grad, fy, out=taps[2])
    np.multiply(taps[2], fx, out=taps[3])
    taps[2] *= 1 - fx
    sums = scatter_groups(ids, vals.reshape(c // group, -1, group), h * w, group)
    return sums.reshape(h, w, c)


# ---------------------------------------------------------------------------
# Cross-entropy with an ignore sentinel
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over rows whose label is not UNLABELED.

    logits (M, K), labels (M,) int. Returns (loss, dlogits, count); with
    zero countable rows the loss and gradient are zero.
    """
    labels = np.asarray(labels)
    mask = labels != UNLABELED
    count = int(mask.sum())
    dlogits = np.zeros_like(logits)
    if count == 0:
        return 0.0, dlogits, 0
    sel = logits[mask]
    lab = labels[mask]
    if lab.min() < 0 or lab.max() >= logits.shape[1]:
        raise ValueError("label outside [0, K) and not the ignore sentinel")
    shifted = sel - sel.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    loss = -log_probs[np.arange(count), lab].mean()
    probs = expv / denom
    probs[np.arange(count), lab] -= 1.0
    dlogits[mask] = probs / count
    return float(loss), dlogits, count


def uniform_init(rng, shape, fan_in):
    """Fan-in scaled uniform initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
