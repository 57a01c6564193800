"""Differentiable numeric primitives (forward + explicit backward).

All tensors are float64 and channels-last; images are (H, W, C). Every
forward returns (output, cache) and the matching backward consumes the
upstream gradient plus the cache, so the whole pipeline can be checked
against central finite differences.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# Dense / elementwise
# ---------------------------------------------------------------------------


def linear_forward(x, w, b=None):
    """y = x @ w (+ b). x may have any leading shape; w is (C_in, C_out)."""
    y = x @ w
    if b is not None:
        y = y + b
    return y, (x, w, b is not None)


def linear_backward(grad, cache):
    """Returns (dx, dw, db); db is None when the layer has no bias."""
    x, w, has_bias = cache
    x2 = x.reshape(-1, x.shape[-1])
    g2 = grad.reshape(-1, grad.shape[-1])
    dx = (g2 @ w.T).reshape(x.shape)
    dw = x2.T @ g2
    db = g2.sum(axis=0) if has_bias else None
    return dx, dw, db


def leaky_relu_forward(x, slope=0.1):
    """max(x, slope * x): for a slope in (0, 1] the same values as
    `where(x >= 0, x, slope * x)`, -0.0, infinities and NaN included,
    without `np.where`'s slower path."""
    if not 0 < slope <= 1:
        raise ValueError(f"leaky slope {slope} outside (0, 1]")
    y = slope * x
    return np.maximum(x, y, out=y), (x >= 0, slope)


def leaky_relu_backward(grad, cache):
    pos, slope = cache
    # one factor per element, 1.0 where x >= 0: grad * 1.0 is grad exactly
    return grad * np.array([slope, 1.0])[pos.view(np.uint8)]


# ---------------------------------------------------------------------------
# Strided 3x3 convolution via im2col
# ---------------------------------------------------------------------------


def conv2d_forward(x, w, b, stride=2, pad=1):
    """2D convolution, x (H, W, C_in), w (kh, kw, C_in, C_out), b (C_out,)."""
    h, wd, c_in = x.shape
    kh, kw, wc_in, c_out = w.shape
    if wc_in != c_in:
        raise ValueError(f"kernel expects {wc_in} input channels, image has {c_in}")
    hp, wp = h + 2 * pad, wd + 2 * pad
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    padded = np.zeros((hp, wp, c_in))
    padded[pad : pad + h, pad : pad + wd] = x
    # im2col: one copy of the (out_h, out_w, kh, kw, C_in) window view
    s_r, s_c, s_ch = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (out_h, out_w, kh, kw, c_in),
        (stride * s_r, stride * s_c, s_r, s_c, s_ch), writeable=False)
    cols = windows.reshape(out_h * out_w, kh * kw * c_in)
    wmat = w.reshape(kh * kw * c_in, c_out)
    y = cols @ wmat
    y += b
    # the weight shape stays at index 2: the benchmark's FLOP counter reads it
    cache = (cols, wmat, w.shape, x.shape, (out_h, out_w), (hp, wp), pad, stride)
    return y.reshape(out_h, out_w, c_out), cache


def conv2d_backward(grad, cache, input_grad=True):
    """Returns (dx, dw, db); dx is None, and not computed, without input_grad."""
    cols, wmat, wshape, xshape, (out_h, out_w), (hp, wp), pad, stride = cache
    h, wd, c_in = xshape
    kh, kw, _, c_out = wshape
    g2 = grad.reshape(-1, c_out)
    dw = (cols.T @ g2).reshape(wshape)
    db = g2.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dcols = (g2 @ wmat.T).reshape(out_h, out_w, kh, kw, c_in)
    # col2im: within one kernel tap the target pixels are disjoint, so each
    # tap is a plain strided slice-add
    dpadded = np.zeros((hp, wp, c_in))
    for ki in range(kh):
        for kj in range(kw):
            dpadded[
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += dcols[:, :, ki, kj]
    dx = dpadded[pad : pad + h, pad : pad + wd]
    return dx, dw, db


# ---------------------------------------------------------------------------
# Row scatter-add
# ---------------------------------------------------------------------------


def scatter_rows(ids, vals, n_rows):
    """out[ids[i]] += vals[i] into zeros of shape (n_rows,) + vals.shape[1:].

    Bit-identical to numpy's unbuffered `ufunc.at` scatter-add: bincount adds
    each bin's weights in input order starting from zero, just as that does,
    and runs several times faster.
    """
    width = int(np.prod(vals.shape[1:], dtype=np.int64))
    bins = (ids[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(bins, weights=vals.ravel(), minlength=n_rows * width)
    return out.reshape((n_rows,) + vals.shape[1:])


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
    i0 = np.minimum(i0, n_in - 1)
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


def bilinear_sample_forward(fmap, u, v):
    """Sample (H, W, C) at fractional grid coordinates; integer (u, v) hit nodes.

    Coordinates are clamped to the grid, so queries on or past the border
    read the edge value.
    """
    h, w, c = fmap.shape
    x = np.clip(u, 0.0, w - 1.0)
    y = np.clip(v, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(y).astype(np.int64), h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    flat = np.ascontiguousarray(fmap).reshape(h * w, c)
    # ((A + B) + C) + D, each tap scaled in place in a reused buffer, so no
    # fresh (N, C) temporary per term
    out = np.take(flat, y0 * w + x0, axis=0)
    out *= (1 - fy) * (1 - fx)
    tap = np.empty_like(out)
    for row, col, weight in ((y0, x1, (1 - fy) * fx), (y1, x0, fy * (1 - fx)),
                             (y1, x1, fy * fx)):
        np.take(flat, row * w + col, axis=0, out=tap)
        tap *= weight
        out += tap
    return out, (fmap.shape, x0, x1, y0, y1, fx, fy)


def bilinear_sample_backward(grad, cache):
    """Scatter the sample gradient back onto the feature map."""
    (h, w, c), x0, x1, y0, y1, fx, fy = cache
    ids = np.concatenate([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    # one buffer, no large temporaries; each tap keeps the left-to-right
    # rounding of grad * (1 - fy) * (1 - fx) and its three siblings
    vals = np.empty((4,) + grad.shape)
    np.multiply(grad, 1 - fy, out=vals[0])
    np.multiply(vals[0], fx, out=vals[1])
    vals[0] *= 1 - fx
    np.multiply(grad, fy, out=vals[2])
    np.multiply(vals[2], fx, out=vals[3])
    vals[2] *= 1 - fx
    return scatter_rows(ids, vals.reshape(-1, c), h * w).reshape(h, w, c)


# ---------------------------------------------------------------------------
# Cross-entropy with an ignore sentinel
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, labels, ignore=-1):
    """Mean cross-entropy over rows whose label is not `ignore`.

    logits (M, K), labels (M,) int. Returns (loss, dlogits, count); with
    zero countable rows the loss and gradient are zero.
    """
    labels = np.asarray(labels)
    mask = labels != ignore
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
