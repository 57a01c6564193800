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
    AttentionParams,
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
    slope: float = 0.1
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


class HexPlaneModel:
    """Parameter container plus forward/backward over one cloud."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.point_params = init_point_encoder(
            c.point_channels, c.point_width, slope=c.slope, rng=rng
        )
        if c.use_planes:
            self.encoder_params = init_encoder_params(
                len(c.raster_channels),
                widths=c.encoder_widths,
                out_channels=c.feature_channels,
                slope=c.slope,
                rng=rng,
            )
            self.attn_params = init_attention_params(
                c.point_width,
                c.feature_channels,
                heads=c.heads,
                head_dim=c.head_dim,
                c_out=c.fused_channels,
                rng=rng,
            )
            self.aux_heads = [
                (
                    ops.uniform_init(rng, (c.feature_channels, c.num_classes), c.feature_channels),
                    np.zeros(c.num_classes),
                )
                for _ in PLANE_KINDS
            ]
            head_in = c.fused_channels
        else:
            self.encoder_params = None
            self.attn_params = None
            self.aux_heads = []
            head_in = c.point_width
        self.head_w = ops.uniform_init(rng, (head_in, c.num_classes), head_in)
        self.head_b = np.zeros(c.num_classes)

    def parameters(self) -> dict:
        """Name -> array view of every trainable tensor, in a fixed order."""
        params = {
            "point/w1": self.point_params.w1,
            "point/b1": self.point_params.b1,
            "point/w2": self.point_params.w2,
            "point/b2": self.point_params.b2,
        }
        if self.config.use_planes:
            for i in range(len(self.encoder_params.conv_w)):
                params[f"enc/conv{i}/W"] = self.encoder_params.conv_w[i]
                params[f"enc/conv{i}/b"] = self.encoder_params.conv_b[i]
            params["enc/mix/W"] = self.encoder_params.mix_w
            params["enc/mix/b"] = self.encoder_params.mix_b
            for name in ("w_query", "w_key", "w_value", "w_pos", "w_out"):
                params[f"attn/{name}"] = getattr(self.attn_params, name)
            for m, (w, b) in enumerate(self.aux_heads):
                params[f"head/aux{m}/W"] = w
                params[f"head/aux{m}/b"] = b
        params["head/point/W"] = self.head_w
        params["head/point/b"] = self.head_b
        return params

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
        feats = cloud.features if cloud.features is not None else default_features(cloud)
        if feats.shape[1] != self.config.point_channels:
            raise ValueError(
                f"cloud provides {feats.shape[1]} input channels, model expects "
                f"{self.config.point_channels}"
            )
        return feats

    def forward(self, cloud: PointCloud, hexset: HexPlaneSet | None) -> ModelOutput:
        c = self.config
        feats = self.input_features(cloud)
        f_p, point_cache = encode_points(
            cloud.positions, feats, self.point_params, voxel_size=c.voxel_size
        )

        if c.use_planes:
            if hexset is None:
                raise ValueError("plane branch enabled but no hexplane set given")
            fused_maps, aux_logits, plane_caches = [], [], []
            for plane, (w, b) in zip(hexset.planes, self.aux_heads):
                pyramid, enc_cache = encode_plane(plane.raster, self.encoder_params)
                fmap, fuse_cache = fuse_scales(pyramid, self.encoder_params)
                logits, aux_cache = heads.aux_head_forward(fmap, w, b)
                fused_maps.append(fmap)
                aux_logits.append(logits)
                plane_caches.append((enc_cache, fuse_cache, aux_cache))
            gathered, valid, gather_cache = gather_plane_features(fused_maps, hexset)
            offsets, _ = gather_offsets(cloud, hexset)
            fused, attn_cache = cross_attention_forward(
                f_p, gathered, valid, offsets, self.attn_params
            )
            head_in = fused
        else:
            plane_caches = gather_cache = attn_cache = None
            aux_logits = []
            head_in = f_p

        point_logits, head_cache = heads.point_head_forward(head_in, self.head_w, self.head_b)
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
        grads["head/point/W"] = dw
        grads["head/point/b"] = db

        if self.config.use_planes:
            attn_grads = cross_attention_backward(d_head_in, attn_cache)
            for name in ("w_query", "w_key", "w_value", "w_pos", "w_out"):
                grads[f"attn/{name}"] = attn_grads[name]
            d_f_p = attn_grads["point_feats"]

            dmaps = gather_plane_features_backward(attn_grads["gathered"], gather_cache)
            d_aux_logits = d_aux_logits or [None] * len(plane_caches)
            for m, (plane_cache, d_fused) in enumerate(zip(plane_caches, dmaps)):
                enc_cache, fuse_cache, aux_cache = plane_cache
                if d_aux_logits[m] is None:
                    w_aux = self.aux_heads[m][0]
                    dw_aux, db_aux = np.zeros_like(w_aux), np.zeros(w_aux.shape[1])
                else:
                    d_from_aux, dw_aux, db_aux = heads.aux_head_backward(
                        d_aux_logits[m], aux_cache
                    )
                    d_fused = d_fused + d_from_aux
                grads[f"head/aux{m}/W"] = dw_aux
                grads[f"head/aux{m}/b"] = db_aux

                grad_pyramid, mix_grads = fuse_scales_backward(d_fused, fuse_cache)
                _, conv_grads = encode_plane_backward(grad_pyramid, enc_cache, input_grad=False)
                for key, value in {**conv_grads, **mix_grads}.items():
                    name = f"enc/{key}"
                    grads[name] = grads[name] + value if name in grads else value
        else:
            d_f_p = d_head_in

        _, point_grads = encode_points_backward(d_f_p, point_cache)
        for key, value in point_grads.items():
            grads[f"point/{key}"] = value
        return grads
