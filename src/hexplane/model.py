"""End-to-end model, with explicit caches and backward, in two parts: a
plane stage run once on the whole cloud (the voxel pool, one 2D encoder
shared by all six planes, per-plane aux heads, the stacked maps, the winner
table) and a point step over one block of points (the point encoder's
tail, the plane gather, attention, the point head). With `use_planes` off
the model degrades to the point-only baseline: point encoder to point head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import heads, ops
from .attention import (cross_attention_backward, cross_attention_forward, encode_points,
                        encode_points_backward, gather_plane_features,
                        gather_plane_features_backward, init_attention_params, init_point_encoder,
                        stack_planes, voxel_pool, voxel_pool_backward)
from .cloud import PointCloud, default_features
from .encoder import (
    encode_plane,
    encode_plane_backward,
    fuse_scales,
    fuse_scales_backward,
    init_encoder_params,
)
from .projection import DEFAULT_CHANNELS, PLANE_KINDS, HexPlaneSet, gather_offsets, winner_table


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int
    point_channels: int = 4
    point_width: int = 64
    voxel_size: float = 0.4
    encoder_widths: tuple = (16, 32, 64)
    feature_channels: int = 64
    heads: int = 4
    head_dim: int = 16
    fused_channels: int = 64
    use_planes: bool = True
    seed: int = 0
    raster_channels: ClassVar[tuple] = DEFAULT_CHANNELS  # each plane's raster; not a setting


@dataclass
class ModelOutput:
    point_logits: np.ndarray
    aux_logits: list
    cache: dict | None  # None unless the forward ran with grad=True


def input_channels(cloud: PointCloud) -> int:
    """Width of the per-point input the model reads from `cloud`: the position
    and the extra feature columns, or the position and depth without them."""
    return 3 + (1 if cloud.features is None else cloud.features.shape[1])


class _Discard(dict):
    """A cache that keeps nothing, so each layer's cache dies as it returns."""

    def __setitem__(self, key, value):
        pass


def _named(groups):
    """Flatten {group: {key: array}} to {"group/key": array}: the one naming
    rule of parameters, gradients and checkpoints."""
    return {f"{group}/{key}": arr for group, arrays in groups.items()
            for key, arr in arrays.items()}


def _dense(rng, c_in, c_out):
    """A bias-carrying linear layer, keyed like its gradients."""
    return {"W": ops.uniform_init(rng, (c_in, c_out), c_in), "b": np.zeros(c_out)}


class HexPlaneModel:
    """Parameter container plus forward/backward over one cloud.

    `groups` maps each learnable part (point, enc, attn, head/aux{m},
    head/point) to the dict its layer's init returns, keyed exactly like
    the gradients its backward pass returns.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.groups = {"point": init_point_encoder(c.point_channels, c.point_width, rng=rng)}
        if c.use_planes:
            self.groups["enc"] = init_encoder_params(
                len(c.raster_channels),
                widths=c.encoder_widths,
                out_channels=c.feature_channels,
                rng=rng,
            )
            self.groups["attn"] = init_attention_params(
                c.point_width,
                c.feature_channels,
                heads=c.heads,
                head_dim=c.head_dim,
                c_out=c.fused_channels,
                rng=rng,
            )
            for m in range(len(PLANE_KINDS)):
                self.groups[f"head/aux{m}"] = _dense(rng, c.feature_channels, c.num_classes)
            head_in = c.fused_channels
        else:
            head_in = c.point_width
        self.groups["head/point"] = _dense(rng, head_in, c.num_classes)

    def parameters(self) -> dict:
        """Name -> array view of every trainable tensor, in a fixed order."""
        return _named(self.groups)

    def load_parameters(self, values: dict) -> None:
        """Copy a checkpointed name -> array mapping into the model."""
        params = self.parameters()
        missing = sorted(set(params) - set(values))
        extra = sorted(set(values) - set(params))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing {missing}, extra {extra}")
        for name, arr in params.items():
            if arr.shape != values[name].shape:
                raise ValueError(
                    f"checkpoint tensor {name} has shape {values[name].shape}, "
                    f"expected {arr.shape}"
                )
            arr[...] = values[name]

    def input_features(self, cloud: PointCloud) -> np.ndarray:
        channels = input_channels(cloud)
        if channels != self.config.point_channels:
            raise ValueError(
                f"cloud provides {channels} input channels, model expects "
                f"{self.config.point_channels}"
            )
        if cloud.features is None:
            return default_features(cloud)
        return np.concatenate([cloud.positions, cloud.features], axis=1)

    def plane_stage(self, cloud: PointCloud, hexset: HexPlaneSet | None, keep: bool = False):
        """The whole-cloud half of a forward: the voxel pool and, with planes,
        each plane's encoder, fusion and aux head, the stacked maps and the
        winner table. Returns (stage, which `point_step` reads; aux_logits;
        each plane's (encoder, fusion, aux head) cache with `keep`, else [])."""
        c, groups = self.config, self.groups
        stage = {"cloud": cloud, "feats": self.input_features(cloud)}
        stage["pool"] = voxel_pool(cloud.positions, stage["feats"], groups["point"], c.voxel_size)
        fused_maps, aux_logits, plane_caches = [], [], []
        if c.use_planes:
            if hexset is None:
                raise ValueError("plane branch enabled but no hexplane set given")
            for m, plane in enumerate(hexset.planes):
                pyramid, enc_cache = encode_plane(plane.raster, groups["enc"])
                fmap, fuse_cache = fuse_scales(pyramid, groups["enc"])
                aux = groups[f"head/aux{m}"]
                logits, aux_cache = heads.aux_head_forward(fmap, aux["W"], aux["b"])
                fused_maps.append(fmap)
                aux_logits.append(logits)
                if keep:
                    plane_caches.append((enc_cache, fuse_cache, aux_cache))
                del pyramid, enc_cache, fuse_cache, aux_cache  # before the next plane's
            stage["planes"] = stack_planes(fused_maps, hexset)
            del fused_maps
            stage["winners"] = winner_table(cloud, hexset)
        return stage, aux_logits, plane_caches

    def point_step(self, stage, rows, keep: bool = False):
        """Logits of the points in `rows`, a slice of `ops.row_blocks`, and
        the step's cache, keyed by layer, with `keep`, else None: each
        layer's cache then dies as the layer returns."""
        c, groups, head = self.config, self.groups, self.groups["head/point"]
        cache = {} if keep else _Discard()
        head_in, (cache["first"], cache["tail"]) = encode_points(
            stage["feats"], stage["pool"], groups["point"], rows)
        if c.use_planes:
            gathered, valid, cache["gather"] = gather_plane_features(stage["planes"], rows)
            offsets = gather_offsets(stage["cloud"], stage["winners"], rows)
            head_in, cache["attn"] = cross_attention_forward(
                head_in, gathered, valid, offsets, groups["attn"], c.heads)
        logits, cache["head"] = heads.point_head_forward(head_in, head["W"], head["b"])
        return logits, cache if keep else None

    def point_step_backward(self, d_logits, cache):
        """Backward of a kept point step: (grads of head/point, attn and point
        w2/b2; d_gathered, over the cache's gathered features, or None; d_h1
        and cell_sums for `voxel_pool_backward`). It pops each part it reads,
        which then dies; the gather's coordinates and the first layer's cache stay."""
        d_in, dw, db = heads.point_head_backward(d_logits, cache.pop("head"))
        grads, d_gathered = {"head/point": {"W": dw, "b": db}}, None
        if self.config.use_planes:
            attn_cache = cache.pop("attn")
            grads["attn"] = cross_attention_backward(d_in, attn_cache, out=attn_cache[1])
            del attn_cache
            d_in, d_gathered = grads["attn"].pop("point_feats"), grads["attn"].pop("gathered")
        d_h1, cell_sums, grads["point"] = encode_points_backward(d_in, cache.pop("tail"))
        return grads, d_gathered, d_h1, cell_sums

    def forward(self, cloud: PointCloud, hexset: HexPlaneSet | None,
                grad: bool = False) -> ModelOutput:
        """The plane stage, then the point step over `ops.row_blocks`. Without
        `grad`, blocks of `ops.POINT_BLOCK` points, so no per-point temporary
        grows with the cloud, and no cache. With it, one block of every point
        keeps the cache `backward` reads, so each sum over the points is one
        whole-batch product and the pool's backward sees whole cells."""
        stage, aux_logits, plane_caches = self.plane_stage(cloud, hexset, keep=grad)
        point_logits = np.empty((cloud.n, self.config.num_classes))
        for rows in ops.row_blocks(cloud.n, cloud.n if grad else ops.POINT_BLOCK):
            point_logits[rows], step_cache = self.point_step(stage, rows, keep=grad)
        return ModelOutput(point_logits, aux_logits,
                           {"planes": plane_caches, "points": step_cache} if grad else None)

    def backward(self, output: ModelOutput, d_point_logits, d_aux_logits=None):
        """Gradients keyed like `parameters()`: the point step's backward,
        the planes' from its d_gathered, then the voxel pool's. d_aux_logits
        has one gradient per plane; None or empty gives the aux heads zero
        gradients. The cache is consumed: a second backward raises."""
        if output.cache is None:
            raise ValueError("backward needs the output of forward(..., grad=True)")
        points, plane_caches = output.cache["points"], output.cache["planes"]
        output.cache = None  # consumed: each part's cache dies after its backward
        grads, d_gathered, d_h1, cell_sums = self.point_step_backward(d_point_logits, points)

        if self.config.use_planes:
            dmaps = gather_plane_features_backward(d_gathered, points.pop("gather"))
            del d_gathered
            d_aux_logits = d_aux_logits or [None] * len(dmaps)
            enc = grads["enc"] = {}
            for m in range(len(dmaps)):  # each plane's cache and map die with its backward
                (enc_cache, fuse_cache, aux_cache), d_fused = plane_caches.pop(0), dmaps.pop(0)
                if d_aux_logits[m] is None:
                    grads[f"head/aux{m}"] = {key: np.zeros_like(value) for key, value
                                             in self.groups[f"head/aux{m}"].items()}
                else:
                    d_from_aux, dw, db = heads.aux_head_backward(d_aux_logits[m], aux_cache)
                    grads[f"head/aux{m}"] = {"W": dw, "b": db}
                    d_fused = d_fused + d_from_aux

                grad_pyramid, mix_grads = fuse_scales_backward(d_fused, fuse_cache)
                _, conv_grads = encode_plane_backward(grad_pyramid, enc_cache, input_grad=False)
                for key, value in {**conv_grads, **mix_grads}.items():
                    enc[key] = enc[key] + value if key in enc else value
                del enc_cache, fuse_cache, aux_cache, d_fused, grad_pyramid

        grads["point"].update(voxel_pool_backward(d_h1, cell_sums, points.pop("first"))[1])
        return _named(grads)
