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
    residual: bool = False
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
            fused_maps, enc_caches, fuse_caches = [], [], []
            aux_logits, aux_caches = [], []
            for plane in hexset.planes:
                pyramid, enc_cache = encode_plane(plane.raster, self.encoder_params)
                fmap, fuse_cache = fuse_scales(pyramid, self.encoder_params)
                fused_maps.append(fmap)
                enc_caches.append(enc_cache)
                fuse_caches.append(fuse_cache)
            for m, fmap in enumerate(fused_maps):
                w, b = self.aux_heads[m]
                logits, cache = heads.aux_head_forward(fmap.data, w, b)
                aux_logits.append(logits)
                aux_caches.append(cache)
            gathered, valid, gather_cache = gather_plane_features(fused_maps, hexset)
            offsets, _ = gather_offsets(cloud, hexset)
            fused, attn_cache = cross_attention_forward(
                f_p, gathered, valid, offsets, self.attn_params, residual=c.residual
            )
            head_in = fused
        else:
            enc_caches = fuse_caches = aux_caches = gather_cache = attn_cache = None
            aux_logits = []
            head_in = f_p

        point_logits, head_cache = heads.point_head_forward(head_in, self.head_w, self.head_b)
        cache = (point_cache, enc_caches, fuse_caches, aux_caches, gather_cache,
                 attn_cache, head_cache)
        return ModelOutput(point_logits=point_logits, aux_logits=aux_logits, cache=cache)

    def backward(self, output: ModelOutput, d_point_logits, d_aux_logits=None):
        """Gradients for every parameter, keyed like `parameters()`."""
        c = self.config
        (point_cache, enc_caches, fuse_caches, aux_caches, gather_cache,
         attn_cache, head_cache) = output.cache
        grads = {}

        d_head_in, dw, db = heads.point_head_backward(d_point_logits, head_cache)
        grads["head/point/W"] = dw
        grads["head/point/b"] = db

        if c.use_planes:
            attn_grads = cross_attention_backward(d_head_in, attn_cache)
            for name in ("w_query", "w_key", "w_value", "w_pos", "w_out"):
                grads[f"attn/{name}"] = attn_grads[name]
            d_f_p = attn_grads["point_feats"]

            dmaps = gather_plane_features_backward(attn_grads["gathered"], gather_cache)
            if d_aux_logits is None:
                d_aux_logits = [None] * len(self.aux_heads)
            enc_grads_total = None
            for m, (w_aux, _) in enumerate(self.aux_heads):
                d_fused = dmaps[m]
                if d_aux_logits[m] is not None:
                    d_from_aux, dw_aux, db_aux = heads.aux_head_backward(
                        d_aux_logits[m], aux_caches[m]
                    )
                    d_fused = d_fused + d_from_aux
                else:
                    dw_aux = np.zeros_like(w_aux)
                    db_aux = np.zeros(w_aux.shape[1])
                grads[f"head/aux{m}/W"] = dw_aux
                grads[f"head/aux{m}/b"] = db_aux

                grad_pyramid, mix_grads = fuse_scales_backward(d_fused, fuse_caches[m])
                _, conv_grads = encode_plane_backward(
                    grad_pyramid, enc_caches[m], input_grad=False
                )
                plane_grads = {**conv_grads, **mix_grads}
                if enc_grads_total is None:
                    enc_grads_total = plane_grads
                else:
                    for key in plane_grads:
                        enc_grads_total[key] = enc_grads_total[key] + plane_grads[key]
            for key, value in enc_grads_total.items():
                grads[f"enc/{key}"] = value
        else:
            d_f_p = d_head_in

        _, point_grads = encode_points_backward(d_f_p, point_cache)
        for key, value in point_grads.items():
            grads[f"point/{key}"] = value
        return grads


# ---------------------------------------------------------------------------
# Micro end-to-end instance for gradient checking
# ---------------------------------------------------------------------------


def micro_model_instance(rng):
    """Tiny cloud + planes + model used by the end-to-end gradient check."""
    from .projection import PlaneSpec, SensorConfig, hexplane_project, ortho_geometry

    n = 32
    positions = rng.uniform(-1.0, 1.0, size=(n, 3))
    positions[:, 2] += 1.5  # keep clear of the projection origin
    labels = rng.integers(0, 3, size=n)
    cloud = PointCloud(positions=positions, labels=labels)

    sensor = SensorConfig(phi_up=1.2, phi_down=0.6, height=8, width=12)
    lo = positions.min(axis=0) - 0.05
    hi = positions.max(axis=0) + 0.05
    specs = [PlaneSpec("cylindrical", 8, 12, sensor=sensor) if kind == "cylindrical"
             else PlaneSpec(kind, 8, 8, *ortho_geometry(kind, lo, hi))
             for kind in PLANE_KINDS]
    hexset = hexplane_project(cloud, specs)

    config = ModelConfig(
        num_classes=3,
        point_width=4,
        voxel_size=0.8,
        encoder_widths=(2, 3, 4),
        feature_channels=4,
        heads=2,
        head_dim=2,
        fused_channels=4,
        seed=int(rng.integers(0, 2**31)),
    )
    model = HexPlaneModel(config)
    # move biases off their zero init so no pre-activation sits exactly on
    # the rectifier kink during finite-difference probes
    for name, arr in model.parameters().items():
        if name.endswith("/b") or name.endswith("b1") or name.endswith("b2"):
            arr += rng.normal(scale=0.05, size=arr.shape)
    return model, cloud, hexset


def micro_model_check(rng, eps):
    """End-to-end FD comparison of the composite loss; one error per group."""
    from .heads import aux_label_grids, composite_loss
    from .projection import rasterize_labels

    model, cloud, hexset = micro_model_instance(rng)
    aux_labels = aux_label_grids(rasterize_labels(cloud, hexset), 3)
    aux_weight = 0.4

    def objective():
        out = model.forward(cloud, hexset)
        report, _, _ = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, aux_weight
        )
        return report.total

    out = model.forward(cloud, hexset)
    _, d_point, d_aux = composite_loss(
        out.point_logits, cloud.labels, out.aux_logits, aux_labels, aux_weight
    )
    analytic = model.backward(out, d_point, d_aux)

    from .gradcheck import _compare_groups

    return _compare_groups(objective, model.parameters(), analytic, eps)
