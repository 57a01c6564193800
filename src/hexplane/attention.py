"""Per-point cross-attention over the six planes.

Each point attends to exactly six keys: its own bilinearly gathered feature
vector from every plane, with a positional embedding of the 3D offset
between the point and the winner of its pixel added to the keys. Planes
where the point is out of FOV are masked and receive exactly zero attention
weight. Forward and backward are both explicit so the whole module can be
verified against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .encoder import FeatureMap
from .projection import HexPlaneSet


@dataclass
class AttentionParams:
    """Projection heads of the plane-fusion attention.

    w_query (C_p, h*d), w_key/w_value (C_f, h*d), w_pos (3, h*d) bias-free
    so a zero offset embeds to zero, w_out (h*d, C_out).
    """

    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_pos: np.ndarray
    w_out: np.ndarray
    heads: int
    head_dim: int

    def __post_init__(self):
        hd = self.heads * self.head_dim
        shapes = {
            "w_query": self.w_query.shape[1],
            "w_key": self.w_key.shape[1],
            "w_value": self.w_value.shape[1],
            "w_pos": self.w_pos.shape[1],
            "w_out": self.w_out.shape[0],
        }
        for name, got in shapes.items():
            if got != hd:
                raise ValueError(f"{name} inner width {got} != heads*head_dim {hd}")
        for name in shapes:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")


def init_attention_params(c_point, c_feat, heads=4, head_dim=16, c_out=64, rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
    hd = heads * head_dim
    return AttentionParams(
        w_query=ops.uniform_init(rng, (c_point, hd), c_point),
        w_key=ops.uniform_init(rng, (c_feat, hd), c_feat),
        w_value=ops.uniform_init(rng, (c_feat, hd), c_feat),
        w_pos=ops.uniform_init(rng, (3, hd), 3),
        w_out=ops.uniform_init(rng, (hd, c_out), hd),
        heads=heads,
        head_dim=head_dim,
    )


def gather_plane_features(feature_maps, hexset: HexPlaneSet):
    """Bilinear sample of each plane's fused features at every point.

    feature_maps: one FeatureMap per plane, in plane order. Returns
    (gathered (N, M, C_f), valid (N, M), cache); out-of-FOV entries are
    zero-filled and flagged invalid.
    """
    if len(feature_maps) != len(hexset.planes):
        raise ValueError("need one feature map per plane")
    n = hexset.planes[0].index.coords.u.shape[0]
    c_f = feature_maps[0].data.shape[2]
    gathered = np.zeros((n, len(feature_maps), c_f))
    valid = np.zeros((n, len(feature_maps)), dtype=bool)
    caches = []
    for m, (fmap, plane) in enumerate(zip(feature_maps, hexset.planes)):
        coords = plane.index.coords
        h, w = plane.raster.shape[:2]
        fh, fw = fmap.data.shape[:2]
        want = (-(-h // fmap.stride), -(-w // fmap.stride))
        if (fh, fw) != want:
            raise ValueError(
                f"feature map {m} is {(fh, fw)} at stride {fmap.stride}; the "
                f"{plane.spec.kind} raster needs {want}"
            )
        mask = coords.in_fov
        u_f = coords.u[mask] * (fw / w)
        v_f = coords.v[mask] * (fh / h)
        sampled, cache = ops.bilinear_sample_forward(fmap.data, u_f, v_f)
        gathered[mask, m, :] = sampled
        valid[:, m] = mask
        caches.append((cache, mask))
    return gathered, valid, caches


def gather_plane_features_backward(grad, caches):
    """Scatter per-point gradients back onto each plane's feature map."""
    dmaps = []
    for m, (cache, mask) in enumerate(caches):
        dmaps.append(ops.bilinear_sample_backward(grad[mask, m, :], cache))
    return dmaps


def positional_embedding(offsets, w_pos):
    """Bias-free linear embedding of (N, M, 3) offsets to (N, M, h*d)."""
    return offsets @ w_pos


def cross_attention_forward(point_feats, gathered, valid, offsets, params, residual=False):
    """Fuse the six gathered plane features into one vector per point.

    point_feats (N, C_p) project to queries; gathered (N, M, C_f) project to
    keys and values; the offset embedding is added to the keys before the
    scaled dot product. Softmax runs over the valid planes only. Returns
    (fused (N, C_out), cache).
    """
    n, m, _ = gathered.shape
    h, d = params.heads, params.head_dim
    if not valid.any(axis=1).all():
        bad = int(np.argwhere(~valid.any(axis=1))[0, 0])
        raise ValueError(f"point {bad} is out of FOV on every plane")

    q = (point_feats @ params.w_query).reshape(n, h, d)
    k = (gathered @ params.w_key).reshape(n, m, h, d)
    phi = positional_embedding(offsets, params.w_pos).reshape(n, m, h, d)
    v = (gathered @ params.w_value).reshape(n, m, h, d)
    keys = k + phi

    scores = np.einsum("nhd,nmhd->nhm", q, keys) / np.sqrt(d)
    scores = np.where(valid[:, None, :], scores, -np.inf)
    scores_max = scores.max(axis=2, keepdims=True)
    exps = np.exp(scores - scores_max)
    weights = exps / exps.sum(axis=2, keepdims=True)  # (n, h, m), 0 on invalid

    context = np.einsum("nhm,nmhd->nhd", weights, v).reshape(n, h * d)
    fused = context @ params.w_out
    if residual:
        if fused.shape[1] != point_feats.shape[1]:
            raise ValueError("residual needs C_out == C_p")
        fused = fused + point_feats
    cache = (point_feats, gathered, offsets, q, keys, v, weights, context, params, residual)
    return fused, cache


def attention_weights(cache):
    """(N, heads, M) softmax weights from a forward cache; zero on masked planes."""
    return cache[6]


def cross_attention_backward(grad, cache):
    """Gradients of the fused output w.r.t. all inputs and parameters.

    Returns a dict with point_feats, gathered, offsets, and the five weight
    matrices. Invalid planes carry exactly zero gradient.
    """
    point_feats, gathered, offsets, q, keys, v, weights, context, params, residual = cache
    n, m = gathered.shape[:2]
    h, d = params.heads, params.head_dim

    d_context = (grad @ params.w_out.T).reshape(n, h, d)
    dw_out = context.T @ grad

    d_weights = np.einsum("nhd,nmhd->nhm", d_context, v)
    dv = np.einsum("nhm,nhd->nmhd", weights, d_context)

    # softmax backward; rows of `weights` are zero exactly on masked planes
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner) / np.sqrt(d)

    dq = np.einsum("nhm,nmhd->nhd", d_scores, keys)
    d_keys = np.einsum("nhm,nhd->nmhd", d_scores, q)

    dq2 = dq.reshape(n, h * d)
    d_point = dq2 @ params.w_query.T
    dw_query = point_feats.T @ dq2

    dk2 = d_keys.reshape(n, m, h * d)
    dv2 = dv.reshape(n, m, h * d)
    g2 = gathered.reshape(n * m, -1)
    d_gathered = dk2 @ params.w_key.T + dv2 @ params.w_value.T
    dw_key = g2.T @ dk2.reshape(n * m, h * d)
    dw_value = g2.T @ dv2.reshape(n * m, h * d)

    d_offsets = dk2 @ params.w_pos.T
    dw_pos = offsets.reshape(n * m, 3).T @ dk2.reshape(n * m, h * d)

    if residual:
        d_point = d_point + grad
    return {
        "point_feats": d_point,
        "gathered": d_gathered,
        "offsets": d_offsets,
        "w_query": dw_query,
        "w_key": dw_key,
        "w_value": dw_value,
        "w_pos": dw_pos,
        "w_out": dw_out,
    }


# ---------------------------------------------------------------------------
# Point branch: per-point MLP with voxel-neighborhood average pooling
# ---------------------------------------------------------------------------


@dataclass
class PointEncoderParams:
    w1: np.ndarray  # (C_in, C_p)
    b1: np.ndarray
    w2: np.ndarray  # (2*C_p, C_p)
    b2: np.ndarray
    slope: float = 0.1


def init_point_encoder(c_in, c_point, slope=0.1, rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
    return PointEncoderParams(
        w1=ops.uniform_init(rng, (c_in, c_point), c_in),
        b1=np.zeros(c_point),
        w2=ops.uniform_init(rng, (2 * c_point, c_point), 2 * c_point),
        b2=np.zeros(c_point),
        slope=slope,
    )


def encode_points(positions, feats, params: PointEncoderParams, voxel_size=0.4):
    """Per-point features with local context, (N, C_p).

    Lift each point's input vector with a linear layer, average the lifted
    features over the point's voxel cell, and mix point + neighborhood
    through a second layer.
    """
    pre1, lin1 = ops.linear_forward(feats, params.w1, params.b1)
    h1, act1 = ops.leaky_relu_forward(pre1, params.slope)

    cells = np.floor((positions - positions.min(axis=0)) / voxel_size).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    counts = np.bincount(inverse).astype(np.float64)
    sums = ops.scatter_rows(inverse, h1, counts.shape[0])
    pooled = sums[inverse] / counts[inverse][:, None]

    both = np.concatenate([h1, pooled], axis=1)
    pre2, lin2 = ops.linear_forward(both, params.w2, params.b2)
    out, act2 = ops.leaky_relu_forward(pre2, params.slope)
    cache = (lin1, act1, inverse, counts, lin2, act2, h1.shape[1])
    return out, cache


def encode_points_backward(grad, cache):
    """Returns (dfeats, grads dict with w1, b1, w2, b2)."""
    lin1, act1, inverse, counts, lin2, act2, width = cache
    g = ops.leaky_relu_backward(grad, act2)
    dboth, dw2, db2 = ops.linear_backward(g, lin2)
    dh1 = dboth[:, :width].copy()
    dpooled = dboth[:, width:]

    # mean-pool backward: per-cell sum of the pooled gradient spread evenly
    cell_sum = ops.scatter_rows(inverse, dpooled, counts.shape[0])
    dh1 += cell_sum[inverse] / counts[inverse][:, None]

    g1 = ops.leaky_relu_backward(dh1, act1)
    dfeats, dw1, db1 = ops.linear_backward(g1, lin1)
    return dfeats, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
