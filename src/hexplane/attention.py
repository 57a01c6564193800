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

The forward cache holds the inputs, the queries q, the softmax weights and
the context, but no (N, h, C_f) tensor: the backward rebuilds
a_h = W_key_h q_h and g_bar_h = sum_m w_hm g_m, one product each and bit
for bit, and frees each whole-batch temporary once it is consumed. Forward
and backward run their per-point products over the blocks of
`ops.row_blocks`, which never leaves a one-row rest, so bit for bit as on
the whole batch; products that sum over the points run on the whole batch.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .encoder import feature_grid
from .projection import HexPlaneSet


def init_attention_params(c_point, c_feat, heads, head_dim, c_out, rng):
    """Projection heads of the plane-fusion attention, keyed like the
    gradients of `cross_attention_backward`: w_query (C_p, h*d),
    w_key/w_value (C_f, h*d), w_pos (3, h*d) bias-free so a zero offset
    embeds to zero, w_out (h*d, C_out)."""
    hd = heads * head_dim
    return {
        "w_query": ops.uniform_init(rng, (c_point, hd), c_point),
        "w_key": ops.uniform_init(rng, (c_feat, hd), c_feat),
        "w_value": ops.uniform_init(rng, (c_feat, hd), c_feat),
        "w_pos": ops.uniform_init(rng, (3, hd), 3),
        "w_out": ops.uniform_init(rng, (hd, c_out), hd),
    }


def stack_planes(feature_maps, hexset: HexPlaneSet):
    """What `gather_plane_features` reads: the fused maps as one
    (sum of H_f * W_f, C_f) table, the grid (each map's first row and
    (H_f, W_f) in it), and per plane its grid coordinates with the factors
    that scale them onto the fused map. No per-point array is built: the
    gather scales the rows it samples."""
    if len(feature_maps) != len(hexset.planes):
        raise ValueError("need one feature map per plane")
    views = []
    for m, (fmap, plane) in enumerate(zip(feature_maps, hexset.planes)):
        h, w = plane.raster.shape[:2]
        fh, fw = fmap.shape[:2]
        want = feature_grid(h, w)
        if (fh, fw) != want:
            raise ValueError(
                f"feature map {m} is {(fh, fw)}; the {plane.spec.kind} raster "
                f"needs {want}"
            )
        views.append((plane.index.coords, fw / w, fh / h))
    shapes = np.array([fmap.shape[:2] for fmap in feature_maps])
    sizes = shapes[:, 0] * shapes[:, 1]
    table = np.concatenate([fmap.reshape(-1, fmap.shape[2]) for fmap in feature_maps])
    return table, (np.cumsum(sizes) - sizes, *shapes.T), views


def gather_plane_features(planes, rows):
    """Bilinear sample of each plane's fused features at the points in `rows`.

    planes: the output of `stack_planes`; every plane is read with one
    take per bilinear tap from its table. Returns (gathered (B, M, C_f),
    valid (B, M), cache); out-of-FOV entries are zero-filled and flagged
    invalid. Every point is sampled, so out-of-FOV coordinates, which may be
    NaN, are moved onto the grid at 0 first. The cache is each map's
    (H_f, W_f), as ints, and the sampler's taps, x0, x1, y0, y1 (B, M) and
    fx, fy (B, M, 1).
    """
    table, grid, views = planes
    valid = np.stack([coords.in_fov[rows] for coords, _, _ in views], axis=1)
    u, v = np.empty(valid.shape), np.empty(valid.shape)
    for m, (coords, scale_u, scale_v) in enumerate(views):
        np.multiply(coords.u[rows], scale_u, out=u[:, m])
        np.multiply(coords.v[rows], scale_v, out=v[:, m])
    np.copyto(u, 0.0, where=~valid)
    np.copyto(v, 0.0, where=~valid)
    gathered, taps = ops.bilinear_sample_forward(table, u, v, grid)
    gathered[~valid] = 0.0
    return gathered, valid, (list(zip(grid[1].tolist(), grid[2].tolist())), *taps)


def gather_plane_features_backward(grad, cache):
    """Scatter per-point gradients back onto each plane's feature map.

    Plane m's columns of the taps are the cache of its own (h_m, w_m, C_f)
    sample. Rows of out-of-FOV points carry zero gradient, so they add
    nothing to any bin and need no mask."""
    shapes, *taps = cache
    return [ops.bilinear_sample_backward(
                grad[:, m], ((h, w, grad.shape[2]), *(tap[:, m] for tap in taps)))
            for m, (h, w) in enumerate(shapes)]


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
    n, m, _ = gathered.shape
    h, d = heads, params["w_query"].shape[1] // heads
    w_key, w_pos, w_value = (_head_blocks(params[k], h) for k in ("w_key", "w_pos", "w_value"))

    # per-head GEMMs over (h, N, .) views; the key side folds into the query
    q = (point_feats @ params["w_query"]).reshape(n, h, d).transpose(1, 0, 2)
    weights = np.empty((n, h, m))
    context = np.empty((n, h, d))
    for rows in ops.row_blocks(n):
        a = (q[:, rows] @ w_key.transpose(0, 2, 1)).transpose(1, 0, 2)
        b = (q[:, rows] @ w_pos.transpose(0, 2, 1)).transpose(1, 0, 2)

        # per-point (h, C_f) @ (C_f, M) products
        scores = a @ gathered[rows].transpose(0, 2, 1)
        scores += b @ offsets[rows].transpose(0, 2, 1)
        del a, b  # so that neither outlives its use
        scores /= np.sqrt(d)
        scores = np.where(valid[rows, None, :], scores, -np.inf)
        # a point out of FOV on every plane: exps are all 0, so weights are too
        blind = ~valid[rows].any(axis=1)
        # a running max over the M slices beats a reduce over the short last axis
        scores_max = scores[:, :, :1].copy()
        for k in range(1, m):
            np.maximum(scores_max, scores[:, :, k:k + 1], out=scores_max)
        scores_max[blind] = 0.0
        exps = np.exp(scores - scores_max)
        total = exps.sum(axis=2, keepdims=True)
        total[blind] = 1.0
        np.divide(exps, total, out=weights[rows])  # 0 on invalid

        g_bar = weights[rows] @ gathered[rows]  # (B, h, C_f)
        np.matmul(g_bar.transpose(1, 0, 2), w_value, out=context[rows].transpose(1, 0, 2))
        del g_bar
    context = context.reshape(n, h * d)
    fused = context @ params["w_out"]
    cache = (point_feats, gathered, offsets, q, weights, context, params)
    return fused, cache


def attention_weights(cache):
    """(N, heads, M) softmax weights from a forward cache; zero on masked planes."""
    return cache[4]


def cross_attention_backward(grad, cache, out=None):
    """Gradients of the fused output w.r.t. the features and the weights.

    Returns a dict with point_feats, gathered, and the five weight matrices;
    invalid planes carry exactly zero gradient. The offsets get none: they
    come from the cloud's positions, which nothing trains.

    The gathered features' gradient is written to `out`, (N, M, C_f), or to
    a new array when it is None. `out` may be the cache's own gathered
    features: each block of points overwrites its rows after its last read
    of them, so a caller that consumes the cache needs no second array.
    """
    point_feats, gathered, offsets, q, weights, context, params = cache
    h, n, d = q.shape
    c_f = gathered.shape[2]
    w_key, w_value, w_pos = (_head_blocks(params[k], h) for k in ("w_key", "w_value", "w_pos"))

    d_context = (grad @ params["w_out"].T).reshape(n, h, d).transpose(1, 0, 2)
    dw_out = context.T @ grad
    dw_value = (weights @ gathered).transpose(1, 2, 0) @ d_context  # g_bar rebuilt

    # per point, over the blocks of `ops.row_blocks`. First d_g_bar, into the
    # (N, h, C_f) array that then takes d_a block by block, so that
    # d_context dies before the pass below; d_a and d_b are laid out
    # (N, h, .), as whole-batch products over the points would form them,
    # for the sums after the loop
    d_a, d_b = np.empty((n, h, c_f)), np.empty((n, h, 3))
    blocks = list(ops.row_blocks(n))
    for rows in blocks:
        np.matmul(d_context[:, rows], w_value.transpose(0, 2, 1), out=d_a[rows].transpose(1, 0, 2))
    del d_context

    # then d_g_bar beside the rebuilt a, so that w^T d_g_bar + d_scores^T a
    # is one product
    d_gathered = np.empty_like(gathered) if out is None else out
    largest = max((b.stop - b.start for b in blocks), default=0)
    d_g_bar_a = np.empty((largest, 2 * h, c_f))
    for rows in blocks:
        w = weights[rows]
        block = d_g_bar_a[:len(w)]
        d_g_bar = block[:, :h]
        d_g_bar[...] = d_a[rows]
        np.matmul(q[:, rows], w_key.transpose(0, 2, 1), out=block[:, h:].transpose(1, 0, 2))

        # softmax backward; rows of `weights` are zero exactly on masked planes
        d_weights = d_g_bar @ gathered[rows].transpose(0, 2, 1)
        inner = (d_weights * w).sum(axis=2, keepdims=True)
        d_scores = w * (d_weights - inner) / np.sqrt(d)
        np.matmul(d_scores, gathered[rows], out=d_a[rows])
        np.matmul(d_scores, offsets[rows], out=d_b[rows])
        # the block's last read of gathered is above, so out may be gathered
        np.matmul(np.concatenate([w, d_scores], axis=1).transpose(0, 2, 1), block,
                  out=d_gathered[rows])
        del block, d_g_bar  # views of the buffer, which dies below
    del d_g_bar_a

    # products that sum over the points run on the whole batch
    d_a, d_b = d_a.transpose(1, 0, 2), d_b.transpose(1, 0, 2)  # (h, n, .)
    dq = np.empty((n, h, d))  # d_a w_key + d_b w_pos, laid out as (n, h*d)
    np.matmul(d_a, w_key, out=dq.transpose(1, 0, 2))
    dw_key = _join_heads(d_a.transpose(0, 2, 1) @ q)
    del d_a
    dq += (d_b @ w_pos).transpose(1, 0, 2)
    dq = dq.reshape(n, h * d)
    return {
        "point_feats": dq @ params["w_query"].T,
        "gathered": d_gathered,
        "w_query": point_feats.T @ dq,
        "w_key": dw_key,
        "w_value": _join_heads(dw_value),
        "w_pos": _join_heads(d_b.transpose(0, 2, 1) @ q),
        "w_out": dw_out,
    }


# ---------------------------------------------------------------------------
# Point branch: per-point MLP with voxel-neighborhood average pooling
# ---------------------------------------------------------------------------


def init_point_encoder(c_in, c_point, rng):
    """Point MLP weights, keyed like the gradients of `voxel_pool_backward`
    and `encode_points_backward`: w1 (C_in, C_p), b1, w2 (2*C_p, C_p), b2."""
    return {
        "w1": ops.uniform_init(rng, (c_in, c_point), c_in),
        "b1": np.zeros(c_point),
        "w2": ops.uniform_init(rng, (2 * c_point, c_point), 2 * c_point),
        "b2": np.zeros(c_point),
    }


def voxel_pool(positions, feats, params, voxel_size):
    """The point encoder's voxel cells and the mean over each of its first
    layer: (inverse (N,), counts (cells,), means (cells, C_p)).

    The cell sums go through one grouped scatter, gcd(C_p, SCATTER_GROUP)
    columns at a time, and each group's columns of the first layer are
    computed only when the scatter reaches them, so no (N, C_p) array is
    built. Each bin adds its terms in point order from zero, as one scatter
    of every column would, and each element of a layer is its own dot
    product, so the means have the bits of the whole-batch form. Raises
    ValueError when a cell index along an axis does not fit in int64. The
    cells are found column by column, so an F-ordered `positions`, as
    `PointCloud.positions` is, reads contiguous rows.
    """
    cells = np.floor((positions - positions.min(axis=0)) / voxel_size)
    if not cells.max() < 2.0**63:
        raise ValueError(f"voxel size {voxel_size:g} gives a cell index past int64")
    cells = cells.astype(np.int64)
    # the mixed-radix cell key sorts like the rows, so `inverse` is the same
    try:
        key = np.ravel_multi_index(cells.T, cells.max(axis=0) + 1)
    except ValueError:  # more cells than an int64 key can number
        _, inverse = np.unique(cells, axis=0, return_inverse=True)
    else:
        _, inverse = np.unique(key, return_inverse=True)
    del cells
    counts = np.bincount(inverse).astype(np.float64)

    width = params["w1"].shape[1]
    group = math.gcd(width, ops.SCATTER_GROUP)
    columns = (ops.leaky_relu_forward(ops.linear_forward(
        feats, params["w1"][:, j:j + group], params["b1"][j:j + group])[0])[0]
        for j in range(0, width, group))
    means = ops.scatter_groups(inverse, columns, len(counts), group)
    means /= counts[:, None]
    return inverse, counts, means


def encode_points(feats, pool, params, rows):
    """Per-point features with local context of the points in `rows`,
    (B, C_p), and their cache, (first, tail).

    Lift each point's input vector with a linear layer, join the point's
    voxel-cell mean of the lifted features from `pool`, the output of
    `voxel_pool` on the same `feats` and `params`, and mix the two through a
    second layer. The first layer is computed again on the rows, with the
    bits it has in the pool. `encode_points_backward` reads `tail`, and
    `voxel_pool_backward` reads `first`, which must be of every point.
    """
    inverse, counts, means = pool
    cells = inverse[rows]
    pre1, lin1 = ops.linear_forward(feats[rows], params["w1"], params["b1"])
    h1, act1 = ops.leaky_relu_forward(pre1)
    both = np.concatenate([h1, means[cells]], axis=1)
    pre2, lin2 = ops.linear_forward(both, params["w2"], params["b2"])
    out, act2 = ops.leaky_relu_forward(pre2)
    return out, ((lin1, act1, cells, counts), (lin2, act2, cells, len(counts)))


def encode_points_backward(grad, tail):
    """The second layer's backward over the rows of its forward: (d_h1, the
    first layer's direct gradient (B, C_p); cell_sums, the pooled half's
    gradient summed over each cell (cells, C_p); grads dict with w2, b2)."""
    lin2, act2, inverse, n_cells = tail
    width = act2.shape[1]
    dboth, dw2, db2 = ops.linear_backward(ops.leaky_relu_backward(grad, act2), lin2)
    d_h1 = dboth[:, :width].copy()
    cell_sums = ops.scatter_groups(inverse, [dboth[:, width:]], n_cells, width)
    return d_h1, cell_sums, {"w2": dw2, "b2": db2}


def voxel_pool_backward(d_h1, cell_sums, first):
    """The first layer's backward over every point from its direct gradient
    and the whole cell sums, both consumed: the cell mean is symmetric, so
    its backward is the mean over each cell. Returns (dfeats, grads w1, b1)."""
    lin1, act1, inverse, counts = first
    cell_sums /= counts[:, None]
    d_h1 += cell_sums[inverse]
    dfeats, dw1, db1 = ops.linear_backward(ops.leaky_relu_backward(d_h1, act1), lin1)
    return dfeats, {"w1": dw1, "b1": db1}
