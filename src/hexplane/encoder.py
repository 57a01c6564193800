"""Small multi-scale 2D encoder for the plane rasters.

Two or more stride-2 3x3 convolution stages with a leaky rectifier, so
pyramid level i has stride 2^(i+1) relative to the input; then scale
fusion on stride 4 (level 1): every level is bilinearly resampled onto
that grid, channel-concatenated, and linearly mixed down to the output
width.
"""

from __future__ import annotations

import numpy as np

from . import ops

FUSE_STRIDE = ops.CONV_STRIDE**2  # stride of pyramid level 1, the fused grid


def feature_grid(h, w):
    """(rows, cols) of the fused stride-4 feature grid of an h x w raster;
    each stage maps n pixels to ceil(n / 2)."""
    return -(-h // FUSE_STRIDE), -(-w // FUSE_STRIDE)


def init_encoder_params(in_channels, widths, out_channels, rng):
    """Stage kernels/biases and the scale-fusion mixing layer, keyed like
    the gradients of the backward passes: conv{i}/W (3, 3, c_in, c_out),
    conv{i}/b, mix/W (sum(widths), c_f), mix/b."""
    params = {}
    c_prev = in_channels
    for i, c_out in enumerate(widths):
        params[f"conv{i}/W"] = ops.uniform_init(rng, (3, 3, c_prev, c_out), 9 * c_prev)
        params[f"conv{i}/b"] = np.zeros(c_out)
        c_prev = c_out
    params["mix/W"] = ops.uniform_init(rng, (sum(widths), out_channels), sum(widths))
    params["mix/b"] = np.zeros(out_channels)
    return params


def encode_plane(raster, params):
    """Feature pyramid of one raster, one (H_i, W_i, C_i) array per stage;
    returns (pyramid, cache)."""
    c_in = params["conv0/W"].shape[2]
    if raster.shape[2] != c_in:
        raise ValueError(f"raster has {raster.shape[2]} channels, encoder expects {c_in}")
    x = raster
    pyramid, caches = [], []
    for i in range(len(params) // 2 - 1):  # W and b per stage, then mix/W, mix/b
        pre, conv_cache = ops.conv2d_forward(x, params[f"conv{i}/W"], params[f"conv{i}/b"])
        x, act_cache = ops.leaky_relu_forward(pre)
        pyramid.append(x)
        caches.append((conv_cache, act_cache))
    return pyramid, caches


def encode_plane_backward(grad_pyramid, caches, input_grad=True):
    """Backward through the stage stack.

    grad_pyramid holds one gradient per level. Returns (draster, grads)
    with grads keyed conv0/W, conv0/b, ...; draster is None, and stage 0's
    col2im is skipped, without input_grad.
    """
    grads = {}
    upstream = None
    for i in reversed(range(len(caches))):
        g = grad_pyramid[i] if upstream is None else grad_pyramid[i] + upstream
        conv_cache, act_cache = caches[i]
        g = ops.leaky_relu_backward(g, act_cache)
        upstream, dw, db = ops.conv2d_backward(
            g, conv_cache, input_grad=input_grad or i > 0
        )
        grads[f"conv{i}/W"] = dw
        grads[f"conv{i}/b"] = db
    return upstream, grads


def _stack_levels(pyramid):
    """Every level resampled onto level 1's grid and concatenated, (H_f, W_f,
    sum of widths), and each level's resize cache, None for level 1."""
    th, tw = pyramid[1].shape[:2]
    resized, resize_caches = [], []
    for level in pyramid:
        if level.shape[:2] == (th, tw):
            resized.append(level)
            resize_caches.append(None)
        else:
            r, cache = ops.bilinear_resize_forward(level, th, tw)
            resized.append(r)
            resize_caches.append(cache)
    return np.concatenate(resized, axis=2), resize_caches


def fuse_scales(pyramid, params):
    """Resample all levels to level 1's grid, concat, mix to C_f channels.

    The cache holds the pyramid and mix/W, not the concatenated stack:
    `fuse_scales_backward` rebuilds that from the pyramid, bit for bit, so
    it must run before the pyramid or the parameters change, as
    `ops.conv2d_forward` requires of its input."""
    if len(pyramid) < 2:
        raise ValueError(f"pyramid needs two or more levels, got {len(pyramid)}")
    for finer, coarser in zip(pyramid, pyramid[1:]):
        want = tuple(-(-s // ops.CONV_STRIDE) for s in finer.shape[:2])
        if coarser.shape[:2] != want:
            raise ValueError(
                f"pyramid levels disagree ({finer.shape[:2]} -> "
                f"{coarser.shape[:2]}); not built from one plane"
            )
    mixed, _ = ops.linear_forward(_stack_levels(pyramid)[0], params["mix/W"], params["mix/b"])
    return mixed, (pyramid, params["mix/W"])


def fuse_scales_backward(grad, cache):
    """Returns (grad per pyramid level, grads dict with mix/W, mix/b). The
    stack that mix/W's gradient reads is rebuilt from the cached pyramid, so
    this must run before the pyramid or the parameters change; the stack
    dies once that gradient is formed."""
    pyramid, w = cache
    stacked, resize_caches = _stack_levels(pyramid)
    dstacked, dw, db = ops.linear_backward(grad, (stacked, w))
    del stacked
    grad_pyramid = []
    start = 0
    for level, rc in zip(pyramid, resize_caches):
        piece = dstacked[:, :, start : start + level.shape[2]]
        start += level.shape[2]
        if rc is None:
            grad_pyramid.append(piece)
        else:
            grad_pyramid.append(ops.bilinear_resize_backward(piece, rc))
    return grad_pyramid, {"mix/W": dw, "mix/b": db}
