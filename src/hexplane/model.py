"""End-to-end model: point branch, shared plane encoder, attention fusion,
and segmentation heads, with explicit forward caches and backward.

A single 2D encoder is shared across all six planes; auxiliary heads are
per-plane. With `use_planes` off the model degrades to the point-only
baseline: point branch straight into the point head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads, ops
from .attention import (
    cross_attention_backward,
    cross_attention_forward,
    encode_points,
    encode_points_backward,
    gather_plane_features,
    gather_plane_features_backward,
    init_attention_params,
    init_point_encoder,
    stack_planes,
    voxel_pool,
)
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
    raster_channels: tuple = DEFAULT_CHANNELS
    seed: int = 0


@dataclass
class ModelOutput:
    point_logits: np.ndarray
    aux_logits: list
    cache: tuple | None  # None unless the forward ran with grad=True


def input_channels(cloud: PointCloud) -> int:
    """Width of the per-point input the model reads from `cloud`: the position
    and the extra feature columns, or the position and depth without them."""
    return 3 + (1 if cloud.features is None else cloud.features.shape[1])


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

    def forward(self, cloud: PointCloud, hexset: HexPlaneSet | None,
                grad: bool = False) -> ModelOutput:
        """Logits for `cloud`. Only with `grad` does the output carry the
        cache `backward` reads; without it each layer's cache dies as the
        layer returns and `cache` is None.

        The voxel pool and the planes run on the whole cloud. The point
        encoder's layers, the offsets, the plane gather, attention and point
        head run over the blocks of `ops.row_blocks` without `grad`, so no
        per-point temporary grows with the point count, and as one block of
        every point with it, so that the backward gets whole-batch caches."""
        c, groups = self.config, self.groups
        kept = (lambda result: result) if grad else (lambda result: (*result[:-1], None))
        feats = self.input_features(cloud)
        pool = voxel_pool(cloud.positions, feats, groups["point"], c.voxel_size)

        plane_caches = gather_cache = attn_cache = None
        aux_logits = []
        if c.use_planes:
            if hexset is None:
                raise ValueError("plane branch enabled but no hexplane set given")
            fused_maps, plane_caches = [], []
            for m, plane in enumerate(hexset.planes):
                pyramid, enc_cache = kept(encode_plane(plane.raster, groups["enc"]))
                fmap, fuse_cache = kept(fuse_scales(pyramid, groups["enc"]))
                aux = groups[f"head/aux{m}"]
                logits, aux_cache = kept(heads.aux_head_forward(fmap, aux["W"], aux["b"]))
                fused_maps.append(fmap)
                aux_logits.append(logits)
                plane_caches.append((enc_cache, fuse_cache, aux_cache))
            planes = stack_planes(fused_maps, hexset)
            del fused_maps
            winners = winner_table(cloud, hexset)

        head = groups["head/point"]
        point_logits = np.empty((cloud.n, head["W"].shape[1]))
        for rows in ops.row_blocks(cloud.n, cloud.n if grad else ops.POINT_BLOCK):
            head_in, point_cache = kept(encode_points(feats, pool, groups["point"], rows))
            if c.use_planes:
                gathered, valid, gather_cache = kept(gather_plane_features(planes, rows))
                head_in, attn_cache = kept(cross_attention_forward(
                    head_in, gathered, valid, gather_offsets(cloud, winners, rows),
                    groups["attn"], c.heads
                ))
                del gathered  # before the next block's gather
            point_logits[rows], head_cache = kept(
                heads.point_head_forward(head_in, head["W"], head["b"]))
        cache = (point_cache, plane_caches, gather_cache, attn_cache, head_cache)
        return ModelOutput(point_logits=point_logits, aux_logits=aux_logits,
                           cache=cache if grad else None)

    def backward(self, output: ModelOutput, d_point_logits, d_aux_logits=None):
        """Gradients for every parameter, keyed like `parameters()`.

        d_aux_logits holds one gradient per plane; None or empty means the
        auxiliary heads are not supervised and get zero gradients. The
        output's cache is consumed, so a second backward on it raises.
        """
        if output.cache is None:
            raise ValueError("backward needs the output of forward(..., grad=True)")
        point_cache, plane_caches, gather_cache, attn_cache, head_cache = output.cache
        output.cache = None  # consumed: each part's cache dies after its backward
        grads = {}

        d_head_in, dw, db = heads.point_head_backward(d_point_logits, head_cache)
        grads["head/point"] = {"W": dw, "b": db}
        del head_cache

        if self.config.use_planes:
            # d_gathered is written over the consumed cache's own gathered features
            attn_grads = cross_attention_backward(d_head_in, attn_cache, out=attn_cache[1])
            del attn_cache
            grads["attn"] = {key: attn_grads[key] for key in self.groups["attn"]}
            d_f_p = attn_grads["point_feats"]

            dmaps = gather_plane_features_backward(attn_grads.pop("gathered"), gather_cache)
            del gather_cache
            d_aux_logits = d_aux_logits or [None] * len(plane_caches)
            enc = grads["enc"] = {}
            for m in range(len(plane_caches)):
                enc_cache, fuse_cache, aux_cache = plane_caches[m]
                d_fused = dmaps[m]
                plane_caches[m] = dmaps[m] = None  # each dies with its plane's backward
                if d_aux_logits[m] is None:
                    aux = self.groups[f"head/aux{m}"]
                    dw_aux, db_aux = np.zeros_like(aux["W"]), np.zeros_like(aux["b"])
                else:
                    d_from_aux, dw_aux, db_aux = heads.aux_head_backward(
                        d_aux_logits[m], aux_cache
                    )
                    d_fused = d_fused + d_from_aux
                grads[f"head/aux{m}"] = {"W": dw_aux, "b": db_aux}

                grad_pyramid, mix_grads = fuse_scales_backward(d_fused, fuse_cache)
                _, conv_grads = encode_plane_backward(grad_pyramid, enc_cache, input_grad=False)
                for key, value in {**conv_grads, **mix_grads}.items():
                    enc[key] = enc[key] + value if key in enc else value
                del enc_cache, fuse_cache, aux_cache, d_fused, grad_pyramid
        else:
            d_f_p = d_head_in

        _, grads["point"] = encode_points_backward(d_f_p, point_cache)
        return _named(grads)
