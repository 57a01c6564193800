"""Small multi-scale 2D encoder for the plane rasters.

Three strided 3x3 convolution stages (strides 2, 4, 8 relative to the
input) with a leaky rectifier, followed by scale fusion: every pyramid
level is bilinearly resampled onto the stride-4 grid, channel-concatenated,
and linearly mixed down to the output width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops

FUSE_STRIDE = 4  # pyramid level the scales are fused on


@dataclass
class EncoderParams:
    """Stage kernels/biases plus the scale-fusion mixing layer."""

    conv_w: list  # per stage (3, 3, c_in, c_out)
    conv_b: list  # per stage (c_out,)
    mix_w: np.ndarray  # (sum(widths), c_f)
    mix_b: np.ndarray  # (c_f,)
    slope: float = 0.1

    def __post_init__(self):
        for arr in (*self.conv_w, *self.conv_b, self.mix_w, self.mix_b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("encoder parameters must be finite")
        widths = [w.shape[3] for w in self.conv_w]
        if self.mix_w.shape[0] != sum(widths):
            raise ValueError(
                f"mix layer expects {sum(widths)} channels, got {self.mix_w.shape[0]}"
            )

    @property
    def widths(self):
        return tuple(w.shape[3] for w in self.conv_w)

    @property
    def out_channels(self):
        return self.mix_w.shape[1]


def init_encoder_params(
    in_channels, widths=(16, 32, 64), out_channels=64, slope=0.1, rng=None
):
    rng = np.random.default_rng(0) if rng is None else rng
    conv_w, conv_b = [], []
    c_prev = in_channels
    for c_out in widths:
        fan_in = 9 * c_prev
        conv_w.append(ops.uniform_init(rng, (3, 3, c_prev, c_out), fan_in))
        conv_b.append(np.zeros(c_out))
        c_prev = c_out
    mix_w = ops.uniform_init(rng, (sum(widths), out_channels), sum(widths))
    mix_b = np.zeros(out_channels)
    return EncoderParams(conv_w, conv_b, mix_w, mix_b, slope)


@dataclass(frozen=True)
class FeatureMap:
    """2D feature tensor plus its stride relative to the input raster."""

    data: np.ndarray  # (H_f, W_f, C)
    stride: int


def encode_plane(raster, params: EncoderParams):
    """Three-level feature pyramid of one raster; returns (pyramid, cache)."""
    if raster.shape[2] != params.conv_w[0].shape[2]:
        raise ValueError(
            f"raster has {raster.shape[2]} channels, encoder expects "
            f"{params.conv_w[0].shape[2]}"
        )
    x = raster
    pyramid, caches = [], []
    stride = 1
    for w, b in zip(params.conv_w, params.conv_b):
        pre, conv_cache = ops.conv2d_forward(x, w, b, stride=2, pad=1)
        x, act_cache = ops.leaky_relu_forward(pre, params.slope)
        stride *= 2
        pyramid.append(FeatureMap(data=x, stride=stride))
        caches.append((conv_cache, act_cache))
    return pyramid, caches


def encode_plane_backward(grad_pyramid, caches):
    """Backward through the stage stack.

    grad_pyramid holds one gradient per level (None allowed). Returns
    (draster, grads) with grads keyed conv0/W, conv0/b, ...
    """
    grads = {}
    upstream = None
    for i in reversed(range(len(caches))):
        g = grad_pyramid[i]
        if upstream is not None:
            g = upstream if g is None else g + upstream
        if g is None:
            g = np.zeros_like(caches[i][1][0], dtype=np.float64)
        conv_cache, act_cache = caches[i]
        g = ops.leaky_relu_backward(g, act_cache)
        upstream, dw, db = ops.conv2d_backward(g, conv_cache)
        grads[f"conv{i}/W"] = dw
        grads[f"conv{i}/b"] = db
    return upstream, grads


def fuse_scales(pyramid, params: EncoderParams):
    """Resample all levels to the stride-4 grid, concat, mix to C_f channels."""
    strides = tuple(fm.stride for fm in pyramid)
    if FUSE_STRIDE not in strides or len(set(strides)) != len(strides):
        raise ValueError(f"pyramid must carry distinct strides incl. {FUSE_STRIDE}, got {strides}")
    for finer, coarser in zip(pyramid, pyramid[1:]):
        want = tuple((s + 1) // 2 for s in finer.data.shape[:2])
        if coarser.data.shape[:2] != want:
            raise ValueError(
                f"pyramid levels disagree ({finer.data.shape[:2]} -> "
                f"{coarser.data.shape[:2]}); not built from one plane"
            )
    target = next(fm for fm in pyramid if fm.stride == FUSE_STRIDE)
    th, tw = target.data.shape[:2]
    resized, resize_caches = [], []
    for fm in pyramid:
        if fm.data.shape[:2] == (th, tw):
            resized.append(fm.data)
            resize_caches.append(None)
        else:
            r, cache = ops.bilinear_resize_forward(fm.data, th, tw)
            resized.append(r)
            resize_caches.append(cache)
    stacked = np.concatenate(resized, axis=2)
    mixed, lin_cache = ops.linear_forward(stacked, params.mix_w, params.mix_b)
    widths = [fm.data.shape[2] for fm in pyramid]
    return FeatureMap(data=mixed, stride=FUSE_STRIDE), (lin_cache, resize_caches, widths)


def fuse_scales_backward(grad, cache):
    """Returns (grad per pyramid level, grads dict with mix/W, mix/b)."""
    lin_cache, resize_caches, widths = cache
    dstacked, dw, db = ops.linear_backward(grad, lin_cache)
    grad_pyramid = []
    start = 0
    for width, rc in zip(widths, resize_caches):
        piece = dstacked[:, :, start : start + width]
        start += width
        if rc is None:
            grad_pyramid.append(piece)
        else:
            grad_pyramid.append(ops.bilinear_resize_backward(piece, rc))
    return grad_pyramid, {"mix/W": dw, "mix/b": db}
