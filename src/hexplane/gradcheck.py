"""Finite-difference verification of every analytic backward pass.

Each registered check builds a small seeded instance. Single ops go through
one probe, `_probe`, which reduces the forward output against a fixed random
projection so the objective is scalar; the loss and the whole model have
scalar objectives already. Every check compares the analytic gradient of
each parameter group with 64-bit central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .attention import (
    cross_attention_backward,
    cross_attention_forward,
    encode_points,
    encode_points_backward,
    init_attention_params,
    init_point_encoder,
    voxel_pool,
)
from .encoder import (
    encode_plane,
    encode_plane_backward,
    feature_grid,
    fuse_scales,
    fuse_scales_backward,
    init_encoder_params,
)
from .cloud import PointCloud
from .heads import aux_label_grids, composite_loss
from .model import HexPlaneModel, ModelConfig
from .projection import (PLANE_KINDS, PlaneSpec, SensorConfig, hexplane_project,
                         ortho_geometry, rasterize_labels)

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckReport:
    op: str
    seed: int
    eps: float
    errors: dict = field(default_factory=dict)  # group name -> max rel. error

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_error < tol

    def lines(self, tol: float = DEFAULT_TOL):
        out = [f"gradcheck {self.op} (seed={self.seed}, eps={self.eps:g})"]
        for name, err in self.errors.items():
            flag = "ok" if err < tol else "FAIL"
            out.append(f"  {name:<16} max rel err {err:.3e}  [{flag}]")
        return out


def finite_difference(fn, x, eps=DEFAULT_EPS):
    """Central-difference gradient of scalar fn() w.r.t. x, perturbed in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn()
        flat[i] = orig - eps
        fm = fn()
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite forward value at the probe point")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _compare_groups(objective, groups, analytic, eps):
    """FD every group against its analytic gradient; returns the error dict."""
    errors = {}
    for name, arr in groups.items():
        numeric = finite_difference(objective, arr, eps)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors


def _probe(eps, r, groups, forward, backward):
    """Check one op against central differences of sum(forward()[0] * r).

    forward() runs the op on the arrays in groups and returns (out, cache);
    backward(r, cache) returns the analytic gradients keyed like groups.
    """
    _, cache = forward()
    analytic = backward(r, cache)
    return _compare_groups(lambda: float((forward()[0] * r).sum()), groups, analytic, eps)


# ---------------------------------------------------------------------------
# Registered checks
# ---------------------------------------------------------------------------


def _check_linear(rng, eps):
    x = rng.normal(size=(7, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    r = rng.normal(size=(7, 4))
    groups = {"input": x, "weight": w, "bias": b}
    return _probe(eps, r, groups, lambda: ops.linear_forward(x, w, b),
                  lambda g, cache: dict(zip(groups, ops.linear_backward(g, cache))))


def _check_leaky_relu(rng, eps):
    x = rng.normal(size=(6, 5)) + np.sign(rng.normal(size=(6, 5))) * 0.05
    r = rng.normal(size=(6, 5))
    return _probe(eps, r, {"input": x}, lambda: ops.leaky_relu_forward(x),
                  lambda g, cache: {"input": ops.leaky_relu_backward(g, cache)})


def _check_conv(rng, eps):
    x = rng.normal(size=(6, 7, 3))
    w = rng.normal(size=(3, 3, 3, 4)) * 0.5
    b = rng.normal(size=4)
    r = rng.normal(size=(3, 4, 4))
    groups = {"input": x, "weight": w, "bias": b}
    return _probe(eps, r, groups, lambda: ops.conv2d_forward(x, w, b),
                  lambda g, cache: dict(zip(groups, ops.conv2d_backward(g, cache))))


def _check_bilinear_resize(rng, eps):
    x = rng.normal(size=(5, 6, 3))
    r = rng.normal(size=(9, 11, 3))
    return _probe(eps, r, {"input": x}, lambda: ops.bilinear_resize_forward(x, 9, 11),
                  lambda g, cache: {"input": ops.bilinear_resize_backward(g, cache)})


def _check_bilinear_sample(rng, eps):
    fmap = rng.normal(size=(6, 8, 4))
    u = rng.uniform(0.3, 6.7, size=12)
    v = rng.uniform(0.3, 4.7, size=12)
    r = rng.normal(size=(12, 4))
    # one map as a one-map table: a view, so the probe's perturbations reach it
    return _probe(eps, r, {"fmap": fmap},
                  lambda: ops.bilinear_sample_forward(fmap.reshape(48, 4), u, v, (0, 6, 8)),
                  lambda g, taps: {"fmap": ops.bilinear_sample_backward(g, ((6, 8, 4), *taps))})


def _check_point_encoder(rng, eps):
    positions = rng.uniform(-2, 2, size=(10, 3))
    feats = rng.normal(size=(10, 4))
    params = init_point_encoder(4, 6, rng=rng)
    params["b1"] += rng.normal(scale=0.05, size=params["b1"].shape)
    params["b2"] += rng.normal(scale=0.05, size=params["b2"].shape)
    r = rng.normal(size=(10, 6))

    def backward(g, cache):
        dfeats, grads = encode_points_backward(g, cache)
        return {"feats": dfeats, **grads}

    return _probe(eps, r, {"feats": feats, **params},
                  lambda: encode_points(feats, voxel_pool(positions, feats, params, 1.3),
                                        params, slice(None)), backward)


def _attention_instance(rng, n=7, m=6, c_p=5, c_f=4, heads=2, head_dim=3):
    point_feats = rng.normal(size=(n, c_p))
    gathered = rng.normal(size=(n, m, c_f))
    valid = rng.uniform(size=(n, m)) > 0.3
    valid[:, 0] = True
    valid[-1] = False  # one point out of FOV on every plane: zero context
    gathered[~valid] = 0.0
    offsets = rng.normal(size=(n, m, 3))
    offsets[~valid] = 0.0
    params = init_attention_params(c_p, c_f, heads=heads, head_dim=head_dim,
                                   c_out=6, rng=rng)
    return point_feats, gathered, valid, offsets, params


def _check_attention(rng, eps):
    heads = 2
    point_feats, gathered, valid, offsets, params = _attention_instance(rng, heads=heads)
    r = rng.normal(size=(point_feats.shape[0], params["w_out"].shape[1]))
    return _probe(
        eps, r, {"point_feats": point_feats, "gathered": gathered, **params},
        lambda: cross_attention_forward(point_feats, gathered, valid, offsets, params, heads),
        cross_attention_backward,
    )


def _check_encoder(rng, eps):
    raster = rng.normal(size=(7, 9, 2))
    params = init_encoder_params(2, widths=(3, 4, 5), out_channels=4, rng=rng)
    # biases off zero so no pre-activation sits on the rectifier kink
    for b in (arr for key, arr in params.items() if key.endswith("/b")):
        b += rng.normal(scale=0.05, size=b.shape)
    r = rng.normal(size=(*feature_grid(7, 9), 4))

    def forward():
        pyramid, enc_cache = encode_plane(raster, params)
        fused, fuse_cache = fuse_scales(pyramid, params)
        return fused, (enc_cache, fuse_cache)

    def backward(g, cache):
        enc_cache, fuse_cache = cache
        grad_pyramid, mix_grads = fuse_scales_backward(g, fuse_cache)
        draster, conv_grads = encode_plane_backward(grad_pyramid, enc_cache)
        return {"raster": draster, **conv_grads, **mix_grads}

    return _probe(eps, r, {"raster": raster, **params}, forward, backward)


def _check_loss(rng, eps):
    logits = rng.normal(size=(9, 4))
    labels = rng.integers(0, 4, size=9)
    labels[rng.uniform(size=9) < 0.2] = -1
    if (labels == -1).all():
        labels[0] = 0

    def objective():
        return ops.softmax_cross_entropy(logits, labels)[0]

    _, dlogits, _ = ops.softmax_cross_entropy(logits, labels)
    return _compare_groups(objective, {"logits": logits}, {"logits": dlogits}, eps)


def micro_model_instance(rng):
    """Tiny cloud + planes + model used by the end-to-end gradient check."""
    n = 32
    positions = rng.uniform(-1.0, 1.0, size=(n, 3))
    positions[:, 2] += 1.5  # keep clear of the projection origin
    labels = rng.integers(0, 3, size=n)
    cloud = PointCloud(positions=positions, labels=labels)

    sensor = SensorConfig(phi_up=1.2, phi_down=0.6)
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
    model, cloud, hexset = micro_model_instance(rng)
    aux_labels = aux_label_grids(rasterize_labels(cloud, hexset), 3)

    def loss(grad=False):
        out = model.forward(cloud, hexset, grad=grad)
        return out, composite_loss(out.point_logits, cloud.labels, out.aux_logits,
                                   aux_labels, aux_weight=0.4)

    out, (_, d_point, d_aux) = loss(grad=True)
    analytic = model.backward(out, d_point, d_aux)
    return _compare_groups(lambda: loss()[1][0].total, model.parameters(), analytic, eps)


CHECKS = {
    "linear": _check_linear,
    "leaky_relu": _check_leaky_relu,
    "conv": _check_conv,
    "bilinear_resize": _check_bilinear_resize,
    "bilinear_sample": _check_bilinear_sample,
    "point_encoder": _check_point_encoder,
    "attention": _check_attention,
    "encoder": _check_encoder,
    "loss": _check_loss,
    "model": micro_model_check,
}


def grad_check(op, seed=0, eps=DEFAULT_EPS) -> GradCheckReport:
    """Run the named check; see CHECKS for the registry."""
    if op not in CHECKS:
        raise ValueError(f"unknown gradcheck op {op!r}; known: {sorted(CHECKS)}")
    rng = np.random.default_rng(seed)
    errors = CHECKS[op](rng, eps)
    return GradCheckReport(op=op, seed=seed, eps=eps, errors=errors)
