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
)
from .cloud import PointCloud, default_features
from .encoder import (
    encode_plane,
    encode_plane_backward,
    fuse_scales,
    fuse_scales_backward,
    init_encoder_params,
)
from .projection import DEFAULT_CHANNELS, PLANE_KINDS, HexPlaneSet, gather_offsets


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
    cache: tuple


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
        feats = (default_features(cloud) if cloud.features is None
                 else np.concatenate([cloud.positions, cloud.features], axis=1))
        if feats.shape[1] != self.config.point_channels:
            raise ValueError(
                f"cloud provides {feats.shape[1]} input channels, model expects "
                f"{self.config.point_channels}"
            )
        return feats

    def forward(self, cloud: PointCloud, hexset: HexPlaneSet | None) -> ModelOutput:
        c, groups = self.config, self.groups
        feats = self.input_features(cloud)
        f_p, point_cache = encode_points(
            cloud.positions, feats, groups["point"], voxel_size=c.voxel_size
        )

        if c.use_planes:
            if hexset is None:
                raise ValueError("plane branch enabled but no hexplane set given")
            fused_maps, aux_logits, plane_caches = [], [], []
            for m, plane in enumerate(hexset.planes):
                pyramid, enc_cache = encode_plane(plane.raster, groups["enc"])
                fmap, fuse_cache = fuse_scales(pyramid, groups["enc"])
                aux = groups[f"head/aux{m}"]
                logits, aux_cache = heads.aux_head_forward(fmap, aux["W"], aux["b"])
                fused_maps.append(fmap)
                aux_logits.append(logits)
                plane_caches.append((enc_cache, fuse_cache, aux_cache))
            gathered, valid, gather_cache = gather_plane_features(fused_maps, hexset)
            offsets, _ = gather_offsets(cloud, hexset)
            fused, attn_cache = cross_attention_forward(
                f_p, gathered, valid, offsets, groups["attn"], c.heads
            )
            head_in = fused
        else:
            plane_caches = gather_cache = attn_cache = None
            aux_logits = []
            head_in = f_p

        head = groups["head/point"]
        point_logits, head_cache = heads.point_head_forward(head_in, head["W"], head["b"])
        cache = (point_cache, plane_caches, gather_cache, attn_cache, head_cache)
        return ModelOutput(point_logits=point_logits, aux_logits=aux_logits, cache=cache)

    def backward(self, output: ModelOutput, d_point_logits, d_aux_logits=None):
        """Gradients for every parameter, keyed like `parameters()`.

        d_aux_logits holds one gradient per plane; None or empty means the
        auxiliary heads are not supervised and get zero gradients.
        """
        point_cache, plane_caches, gather_cache, attn_cache, head_cache = output.cache
        grads = {}

        d_head_in, dw, db = heads.point_head_backward(d_point_logits, head_cache)
        grads["head/point"] = {"W": dw, "b": db}

        if self.config.use_planes:
            attn_grads = cross_attention_backward(d_head_in, attn_cache)
            grads["attn"] = {key: attn_grads[key] for key in self.groups["attn"]}
            d_f_p = attn_grads["point_feats"]

            dmaps = gather_plane_features_backward(attn_grads["gathered"], gather_cache)
            d_aux_logits = d_aux_logits or [None] * len(plane_caches)
            enc = grads["enc"] = {}
            for m, (plane_cache, d_fused) in enumerate(zip(plane_caches, dmaps)):
                enc_cache, fuse_cache, aux_cache = plane_cache
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
        else:
            d_f_p = d_head_in

        _, grads["point"] = encode_points_backward(d_f_p, point_cache)
        return _named(grads)
