"""Per-point cross-attention over the six planes.

Each point attends to exactly six keys: its own bilinearly gathered feature
vector from every plane, with a positional embedding of the 3D offset
between the point and the winner of its pixel added to the keys. Planes
where the point is out of FOV are masked and receive exactly zero attention
weight; a point out of FOV on every plane gets all-zero weights and so a
zero context. Forward and backward are both explicit so the whole module
can be verified against finite differences.

The key and value projections are reassociated to act on per-point,
per-head vectors instead of on every (point, plane) row. With W_key_h,
W_value_h, W_pos_h the column blocks of head h, q_h the point's query,
g_m its feature and o_m its offset on plane m:

    a_h = W_key_h q_h (C_f,),   b_h = W_pos_h q_h (3,)
    score_hm = (g_m . a_h + o_m . b_h) / sqrt(d)
    context_h = (sum_m w_hm g_m) W_value_h

so no (N*M, h*d) key or value tensor is formed.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .encoder import feature_grid
from .projection import HexPlaneSet


def init_attention_params(c_point, c_feat, heads=4, head_dim=16, c_out=64, rng=None):
    """Projection heads of the plane-fusion attention, keyed like the
    gradients of `cross_attention_backward`: w_query (C_p, h*d),
    w_key/w_value (C_f, h*d), w_pos (3, h*d) bias-free so a zero offset
    embeds to zero, w_out (h*d, C_out)."""
    rng = np.random.default_rng(0) if rng is None else rng
    hd = heads * head_dim
    return {
        "w_query": ops.uniform_init(rng, (c_point, hd), c_point),
        "w_key": ops.uniform_init(rng, (c_feat, hd), c_feat),
        "w_value": ops.uniform_init(rng, (c_feat, hd), c_feat),
        "w_pos": ops.uniform_init(rng, (3, hd), 3),
        "w_out": ops.uniform_init(rng, (hd, c_out), hd),
    }


def gather_plane_features(feature_maps, hexset: HexPlaneSet):
    """Bilinear sample of each plane's fused features at every point.

    feature_maps: one fused (H_f, W_f, C_f) map per plane, in plane order,
    on the stride-4 grid of `feature_grid`. Returns
    (gathered (N, M, C_f), valid (N, M), cache); out-of-FOV entries are
    zero-filled and flagged invalid.
    """
    if len(feature_maps) != len(hexset.planes):
        raise ValueError("need one feature map per plane")
    n = hexset.planes[0].index.coords.u.shape[0]
    c_f = feature_maps[0].shape[2]
    gathered = np.empty((n, len(feature_maps), c_f))
    valid = np.empty((n, len(feature_maps)), dtype=bool)
    caches = []
    for m, (fmap, plane) in enumerate(zip(feature_maps, hexset.planes)):
        coords = plane.index.coords
        h, w = plane.raster.shape[:2]
        fh, fw = fmap.shape[:2]
        want = feature_grid(h, w)
        if (fh, fw) != want:
            raise ValueError(
                f"feature map {m} is {(fh, fw)}; the {plane.spec.kind} raster "
                f"needs {want}"
            )
        # every point is sampled, so out-of-FOV coordinates, which may be
        # NaN, are moved onto the grid first; their rows are zeroed after
        mask = coords.in_fov
        u_f = np.where(mask, coords.u, 0.0) * (fw / w)
        v_f = np.where(mask, coords.v, 0.0) * (fh / h)
        gathered[:, m], cache = ops.bilinear_sample_forward(fmap, u_f, v_f)
        gathered[~mask, m] = 0.0
        valid[:, m] = mask
        caches.append(cache)
    return gathered, valid, caches


def gather_plane_features_backward(grad, caches):
    """Scatter per-point gradients back onto each plane's feature map.

    Rows of out-of-FOV points carry zero gradient, so they add nothing to
    any bin and need no mask."""
    return [ops.bilinear_sample_backward(grad[:, m], cache)
            for m, cache in enumerate(caches)]


def _head_blocks(w, heads):
    """A (rows, h*d) weight as its per-head column blocks, (h, rows, d)."""
    return w.reshape(w.shape[0], heads, -1).transpose(1, 0, 2)


def _join_heads(blocks):
    """Inverse of `_head_blocks`: (h, rows, d) to (rows, h*d)."""
    return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], -1)


def cross_attention_forward(point_feats, gathered, valid, offsets, params, heads):
    """Fuse the six gathered plane features into one vector per point.

    point_feats (N, C_p) give the queries; gathered (N, M, C_f) give the
    keys, with the offset embedding added, and the values, reassociated as
    the module docstring shows; `heads` splits the inner width h*d. Softmax
    runs over the valid planes only; a point with none gets a zero context.
    Returns (fused (N, C_out), cache).
    """
    n = gathered.shape[0]
    h, d = heads, params["w_query"].shape[1] // heads

    # per-head GEMMs over (h, N, .) views; the key side folds into the query
    q = (point_feats @ params["w_query"]).reshape(n, h, d).transpose(1, 0, 2)
    a = (q @ _head_blocks(params["w_key"], h).transpose(0, 2, 1)).transpose(1, 0, 2)
    b = (q @ _head_blocks(params["w_pos"], h).transpose(0, 2, 1)).transpose(1, 0, 2)

    # per-point (h, C_f) @ (C_f, M) products
    scores = a @ gathered.transpose(0, 2, 1)
    scores += b @ offsets.transpose(0, 2, 1)
    scores /= np.sqrt(d)
    scores = np.where(valid[:, None, :], scores, -np.inf)
    # a point out of FOV on every plane: exps are all 0, so weights are too
    blind = ~valid.any(axis=1)
    # a running max over the M slices beats a reduce over the short last axis
    scores_max = scores[:, :, :1].copy()
    for m in range(1, scores.shape[2]):
        np.maximum(scores_max, scores[:, :, m:m + 1], out=scores_max)
    scores_max[blind] = 0.0
    exps = np.exp(scores - scores_max)
    total = exps.sum(axis=2, keepdims=True)
    total[blind] = 1.0
    weights = exps / total  # (n, h, m), 0 on invalid

    g_bar = weights @ gathered  # (n, h, C_f)
    context = g_bar.transpose(1, 0, 2) @ _head_blocks(params["w_value"], h)
    context = context.transpose(1, 0, 2).reshape(n, h * d)
    fused = context @ params["w_out"]
    cache = (point_feats, gathered, offsets, q, a, g_bar, weights, context, params)
    return fused, cache


def attention_weights(cache):
    """(N, heads, M) softmax weights from a forward cache; zero on masked planes."""
    return cache[6]


def cross_attention_backward(grad, cache):
    """Gradients of the fused output w.r.t. the features and the weights.

    Returns a dict with point_feats, gathered, and the five weight matrices;
    invalid planes carry exactly zero gradient. The offsets get none: they
    come from the cloud's positions, which nothing trains.
    """
    point_feats, gathered, offsets, q, a, g_bar, weights, context, params = cache
    h, n, d = q.shape
    w_key, w_value, w_pos = (_head_blocks(params[k], h) for k in ("w_key", "w_value", "w_pos"))

    d_context = (grad @ params["w_out"].T).reshape(n, h, d).transpose(1, 0, 2)
    dw_out = context.T @ grad
    d_g_bar = (d_context @ w_value.transpose(0, 2, 1)).transpose(1, 0, 2)
    dw_value = g_bar.transpose(1, 2, 0) @ d_context

    # softmax backward; rows of `weights` are zero exactly on masked planes
    d_weights = d_g_bar @ gathered.transpose(0, 2, 1)
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner) / np.sqrt(d)

    # w^T d_g_bar + d_scores^T a as one product with inner width 2h
    d_gathered = (np.concatenate([weights, d_scores], axis=1).transpose(0, 2, 1)
                  @ np.concatenate([d_g_bar, a], axis=1))
    d_a = (d_scores @ gathered).transpose(1, 0, 2)  # (h, n, C_f)
    d_b = (d_scores @ offsets).transpose(1, 0, 2)  # (h, n, 3)

    dq = (d_a @ w_key + d_b @ w_pos).transpose(1, 0, 2).reshape(n, h * d)
    d_point = dq @ params["w_query"].T
    dw_query = point_feats.T @ dq
    return {
        "point_feats": d_point,
        "gathered": d_gathered,
        "w_query": dw_query,
        "w_key": _join_heads(d_a.transpose(0, 2, 1) @ q),
        "w_value": _join_heads(dw_value),
        "w_pos": _join_heads(d_b.transpose(0, 2, 1) @ q),
        "w_out": dw_out,
    }


# ---------------------------------------------------------------------------
# Point branch: per-point MLP with voxel-neighborhood average pooling
# ---------------------------------------------------------------------------


def init_point_encoder(c_in, c_point, rng=None):
    """Point MLP weights, keyed like the gradients of
    `encode_points_backward`: w1 (C_in, C_p), b1, w2 (2*C_p, C_p), b2."""
    rng = np.random.default_rng(0) if rng is None else rng
    return {
        "w1": ops.uniform_init(rng, (c_in, c_point), c_in),
        "b1": np.zeros(c_point),
        "w2": ops.uniform_init(rng, (2 * c_point, c_point), 2 * c_point),
        "b2": np.zeros(c_point),
    }


def encode_points(positions, feats, params, voxel_size=0.4):
    """Per-point features with local context, (N, C_p).

    Lift each point's input vector with a linear layer, average the lifted
    features over the point's voxel cell, and mix point + neighborhood
    through a second layer.
    """
    pre1, lin1 = ops.linear_forward(feats, params["w1"], params["b1"])
    h1, act1 = ops.leaky_relu_forward(pre1)

    cells = np.floor((positions - positions.min(axis=0)) / voxel_size).astype(np.int64)
    # the mixed-radix cell key sorts like the rows, so `inverse` is the same
    try:
        key = np.ravel_multi_index(cells.T, cells.max(axis=0) + 1)
    except ValueError:  # more cells than an int64 key can number
        _, inverse = np.unique(cells, axis=0, return_inverse=True)
    else:
        _, inverse = np.unique(key, return_inverse=True)
    counts = np.bincount(inverse).astype(np.float64)
    sums = ops.scatter_rows(inverse, h1, counts.shape[0])
    pooled = sums[inverse] / counts[inverse][:, None]

    both = np.concatenate([h1, pooled], axis=1)
    pre2, lin2 = ops.linear_forward(both, params["w2"], params["b2"])
    out, act2 = ops.leaky_relu_forward(pre2)
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
