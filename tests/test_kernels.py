"""The forward hot path, and the conv and attention backward passes that
rebuild what their forward no longer caches, pinned bit for bit to their
plain numpy statement.

Each kernel below makes one pass over reused buffers instead of building
fresh temporaries. Each test writes the straightforward expression inline
and requires the same bits: -0.0, infinities and NaN included.
"""

import dataclasses

import numpy as np
import pytest

from hexplane import ops
from hexplane.attention import (
    attention_weights,
    cross_attention_backward,
    cross_attention_forward,
    gather_plane_features,
    gather_plane_features_backward,
    init_attention_params,
    stack_planes,
)
from hexplane.cloud import PointCloud
from hexplane.model import HexPlaneModel, ModelConfig
from hexplane.ops import POINT_BLOCK
from hexplane.projection import (
    HexPlaneSet,
    default_plane_specs,
    hexplane_project,
)
from test_attention import make_instance, sample_one_map
from test_encoder import traced_peak
from test_projection import whole_offsets

EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeakyRelu:
    # the one slope the rectifier runs at
    @pytest.mark.parametrize("slope", [0.1])
    def test_forward_and_backward_match_where(self, slope):
        assert ops.LEAKY_SLOPE == slope
        rng = np.random.default_rng(0)
        x = np.concatenate([EDGES, rng.normal(size=200)]).reshape(-1, 3)
        grad = np.concatenate([EDGES[::-1], rng.normal(size=200)]).reshape(-1, 3)
        y, cache = ops.leaky_relu_forward(x)
        assert same_bits(y, np.where(x >= 0, x, slope * x))
        assert same_bits(ops.leaky_relu_backward(grad, cache),
                         np.where(x >= 0, grad, slope * grad))


def im2col_by_index(x, kh, kw, stride, pad):
    """The fancy-index im2col: one flat gather index per window tap."""
    h, w, c = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    padded = np.zeros((hp * wp, c))
    padded.reshape(hp, wp, c)[pad : pad + h, pad : pad + w] = x
    rows = (np.arange(out_h)[:, None] * stride + np.arange(kh)).reshape(out_h, 1, kh, 1)
    cols = (np.arange(out_w)[:, None] * stride + np.arange(kw)).reshape(1, out_w, 1, kw)
    idx = (rows * wp + cols).reshape(out_h * out_w, kh * kw)
    return padded[idx].reshape(out_h * out_w, kh * kw * c), (out_h, out_w)


# every conv runs at stride 2, pad 1; the kernel size comes from the weights
CONV_GRID = pytest.mark.parametrize("h,w,c_in,k,pad", [
    (7, 5, 3, 3, 1), (5, 7, 1, 3, 1), (1, 1, 2, 3, 1), (9, 4, 2, 1, 1), (6, 6, 4, 2, 1)])
CONV_STRIDE = pytest.mark.parametrize("stride", [2])


def conv_case(h, w, c_in, k):
    rng = np.random.default_rng(h * 100 + w * 10 + k)
    x = rng.normal(size=(h, w, c_in))
    x[0, 0, 0] = -0.0
    return x, rng.normal(size=(k, k, c_in, 5)), rng.normal(size=5)


class TestConv2d:
    @CONV_GRID
    @CONV_STRIDE
    def test_forward_matches_index_im2col(self, h, w, c_in, k, stride, pad):
        assert (ops.CONV_STRIDE, ops.CONV_PAD) == (stride, pad)
        x, wt, b = conv_case(h, w, c_in, k)
        cols, (out_h, out_w) = im2col_by_index(x, k, k, stride, pad)
        want = (cols @ wt.reshape(-1, 5) + b).reshape(out_h, out_w, 5)
        got, cache = ops.conv2d_forward(x, wt, b)
        assert same_bits(got, want)
        # the cache holds the input; the backward rebuilds this im2col from it
        rebuilt, _ = ops.im2col(cache[0], k, k)
        assert same_bits(rebuilt, cols)
        assert cache[2] == wt.shape  # the benchmark's FLOP counter reads it

    @CONV_GRID
    @CONV_STRIDE
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_matches_cached_im2col(self, h, w, c_in, k, stride, pad, input_grad):
        # the backward as it read a cached im2col matrix, written inline
        assert (ops.CONV_STRIDE, ops.CONV_PAD) == (stride, pad)
        x, wt, b = conv_case(h, w, c_in, k)
        cols, (out_h, out_w) = im2col_by_index(x, k, k, stride, pad)
        grad = np.random.default_rng(k).normal(size=(out_h, out_w, 5))
        grad[0, 0, 0] = -0.0
        g2 = grad.reshape(-1, 5)
        want_dw = (cols.T @ g2).reshape(wt.shape)
        want_db = g2.sum(axis=0)
        dcols = (g2 @ wt.reshape(-1, 5).T).reshape(out_h, out_w, k, k, c_in)
        dpadded = np.zeros((h + 2 * pad, w + 2 * pad, c_in))
        for ki in range(k):
            for kj in range(k):
                dpadded[ki : ki + stride * out_h : stride,
                        kj : kj + stride * out_w : stride] += dcols[:, :, ki, kj]
        want_dx = dpadded[pad : pad + h, pad : pad + w]

        _, cache = ops.conv2d_forward(x, wt, b)
        dx, dw, db = ops.conv2d_backward(grad, cache, input_grad=input_grad)
        assert same_bits(dw, want_dw) and same_bits(db, want_db)
        if input_grad:
            assert same_bits(dx, want_dx)
        else:
            assert dx is None


def attention_caching_key_and_value(point_feats, gathered, valid, offsets, params,
                                    heads, grad):
    """The attention forward and backward as they were when the forward
    cached a and g_bar, (N, h, C_f) each, and the backward ran on the whole
    batch at once and joined both halves of its 2h-wide product with two
    concatenates.

    Returns (fused, weights, grads)."""
    n = gathered.shape[0]
    h, d = heads, params["w_query"].shape[1] // heads
    blocks = {k: params[k].reshape(params[k].shape[0], h, -1).transpose(1, 0, 2)
              for k in ("w_key", "w_value", "w_pos")}
    w_key, w_value, w_pos = blocks["w_key"], blocks["w_value"], blocks["w_pos"]

    q = (point_feats @ params["w_query"]).reshape(n, h, d).transpose(1, 0, 2)
    a = (q @ w_key.transpose(0, 2, 1)).transpose(1, 0, 2)
    b = (q @ w_pos.transpose(0, 2, 1)).transpose(1, 0, 2)
    scores = a @ gathered.transpose(0, 2, 1)
    scores += b @ offsets.transpose(0, 2, 1)
    scores /= np.sqrt(d)
    scores = np.where(valid[:, None, :], scores, -np.inf)
    blind = ~valid.any(axis=1)
    scores_max = scores[:, :, :1].copy()
    for m in range(1, scores.shape[2]):
        np.maximum(scores_max, scores[:, :, m:m + 1], out=scores_max)
    scores_max[blind] = 0.0
    exps = np.exp(scores - scores_max)
    total = exps.sum(axis=2, keepdims=True)
    total[blind] = 1.0
    weights = exps / total
    g_bar = weights @ gathered
    context = (g_bar.transpose(1, 0, 2) @ w_value).transpose(1, 0, 2).reshape(n, h * d)
    fused = context @ params["w_out"]

    d_context = (grad @ params["w_out"].T).reshape(n, h, d).transpose(1, 0, 2)
    d_g_bar = (d_context @ w_value.transpose(0, 2, 1)).transpose(1, 0, 2)
    d_weights = d_g_bar @ gathered.transpose(0, 2, 1)
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner) / np.sqrt(d)
    d_gathered = (np.concatenate([weights, d_scores], axis=1).transpose(0, 2, 1)
                  @ np.concatenate([d_g_bar, a], axis=1))
    d_a = (d_scores @ gathered).transpose(1, 0, 2)
    d_b = (d_scores @ offsets).transpose(1, 0, 2)
    dq = (d_a @ w_key + d_b @ w_pos).transpose(1, 0, 2).reshape(n, h * d)

    def join(x):
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    grads = {
        "point_feats": dq @ params["w_query"].T,
        "gathered": d_gathered,
        "w_query": point_feats.T @ dq,
        "w_key": join(d_a.transpose(0, 2, 1) @ q),
        "w_value": join(g_bar.transpose(1, 2, 0) @ d_context),
        "w_pos": join(d_b.transpose(0, 2, 1) @ q),
        "w_out": context.T @ grad,
    }
    return fused, weights, grads


SHIPPED_ATTENTION = dict(c_p=32, c_f=32, heads=4, head_dim=8, c_out=32)

# the backward's traced peak above its inputs may exceed d_gathered + d_a +
# d_scores by the (N, h*d) dq and (N, h, 3) d_b that form beside d_a: 0.42 MB
# at N = 8 * POINT_BLOCK and the shipped widths, where one (N, 2h, C_f)
# buffer is 4.2 MB and the whole-batch backward peaked 3.89 MB above the
# three. Since d_context dies before the blocked pass that forms d_a, d_b and
# d_scores block by block, the peak is 0.55 MB above the three: d_b, one
# (POINT_BLOCK, 2h, C_f) buffer and the block's temporaries beside d_a
ATTENTION_BACKWARD_ALLOWANCE = 800_000


def point_blocks(n):
    """Shipped widths at n points, blind at both ends and in the middle."""
    blind = sorted({0, n // 2, n - 1}) if n > 1 else ()
    return pytest.param(dict(n=n, blind=blind, **SHIPPED_ATTENTION), id=f"points_{n}")


def last_in_view(n):
    """Shipped widths at n points, blind at the start and in the middle:
    row n - 1 is in view, so a one-row rest there would carry gemv's bits."""
    return pytest.param(dict(n=n, blind=(0, n // 2), **SHIPPED_ATTENTION),
                        id=f"points_{n}_last_in_view")


@pytest.mark.parametrize("n", [0, 1, 2, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1,
                               POINT_BLOCK + 2, 2 * POINT_BLOCK + 1, 2000])
def test_row_blocks_cover_the_rows_in_order_with_no_one_row_rest(n):
    blocks = list(ops.row_blocks(n))
    assert [row for rows in blocks for row in range(n)[rows]] == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert (1 in sizes) == (n == 1)
    assert max(sizes, default=0) <= POINT_BLOCK + 1


class TestCrossAttention:
    # the reference runs on the whole batch; the backward under test runs its
    # per-point products over the blocks of `ops.row_blocks`
    @pytest.mark.parametrize("dims", [
        pytest.param({}, id="micro"),
        pytest.param(dict(n=2000, **SHIPPED_ATTENTION), id="occlusion_transfer"),
        pytest.param(dict(n=40, blind=(0, 17, 39)), id="blind_points"),
        *(point_blocks(n) for n in (0, 1, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1, 2000)),
        *(last_in_view(n) for n in (POINT_BLOCK + 1, 2 * POINT_BLOCK + 1)),
    ])
    def test_rebuilt_key_and_value_match_cached(self, dims):
        point_feats, gathered, valid, offsets, params = make_instance(20, **dims)
        heads = dims.get("heads", 2)
        grad = np.random.default_rng(5).normal(size=(gathered.shape[0],
                                                     params["w_out"].shape[1]))
        grad[:1, :1] = -0.0
        want_fused, want_weights, want_grads = attention_caching_key_and_value(
            point_feats, gathered, valid, offsets, params, heads, grad)
        fused, cache = cross_attention_forward(point_feats, gathered, valid, offsets,
                                               params, heads)
        assert same_bits(fused, want_fused)
        assert same_bits(attention_weights(cache), want_weights)
        grads = cross_attention_backward(grad, cache)
        assert grads.keys() == want_grads.keys()
        for key, value in grads.items():
            assert same_bits(value, want_grads[key]), key

    def test_backward_peak_holds_no_whole_batch_buffer(self):
        n = 8 * POINT_BLOCK
        point_feats, gathered, valid, offsets, params = make_instance(
            21, n=n, blind=(0, n // 2, n - 1), **SHIPPED_ATTENTION)
        heads, c_f = SHIPPED_ATTENTION["heads"], SHIPPED_ATTENTION["c_f"]
        fused, cache = cross_attention_forward(point_feats, gathered, valid, offsets,
                                               params, heads)
        grad = np.random.default_rng(6).normal(size=fused.shape)
        with traced_peak() as traced:
            grads = cross_attention_backward(grad, cache)
        d_a_bytes = n * heads * c_f * 8
        assert grads["gathered"].nbytes == gathered.nbytes
        assert traced.peak <= (gathered.nbytes + d_a_bytes + attention_weights(cache).nbytes
                               + ATTENTION_BACKWARD_ALLOWANCE), f"traced peak {traced.peak} B"

    def test_backward_writes_out_and_leaves_the_callers_gathered(self):
        # a direct call gets a new d_gathered and leaves the cache's gathered
        # as it was; given that array as `out`, the backward writes over it,
        # each block after its last read, with the same bits everywhere
        n = 2000
        point_feats, gathered, valid, offsets, params = make_instance(
            22, n=n, blind=(0, n // 2, n - 1), **SHIPPED_ATTENTION)
        fused, cache = cross_attention_forward(point_feats, gathered, valid, offsets,
                                               params, SHIPPED_ATTENTION["heads"])
        before = gathered.copy()
        grad = np.random.default_rng(7).normal(size=fused.shape)
        grads = cross_attention_backward(grad, cache)
        assert same_bits(gathered, before)
        assert not np.shares_memory(grads["gathered"], gathered)
        in_place = cross_attention_backward(grad, cache, out=gathered)
        assert in_place["gathered"] is gathered
        for key, value in grads.items():
            assert same_bits(in_place[key], value), key


def sample_by_fancy_index(fmap, u, v, grid=None):
    """The four-term bilinear sample, each tap a fresh fancy-index gather;
    `grid` (base, h, w) reads a stacked table, as in the sampler."""
    if grid is None:
        h, w, c = fmap.shape
        base, flat = 0, fmap.reshape(h * w, c)
    else:
        (base, h, w), flat = grid, fmap
    x, y = np.clip(u, 0.0, w - 1.0), np.clip(v, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(y).astype(np.int64), h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (x - x0)[..., None], (y - y0)[..., None]
    return (flat[base + y0 * w + x0] * ((1 - fy) * (1 - fx))
            + flat[base + y0 * w + x1] * ((1 - fy) * fx)
            + flat[base + y1 * w + x0] * (fy * (1 - fx))
            + flat[base + y1 * w + x1] * (fy * fx))


class TestBilinearSample:
    @pytest.mark.parametrize("h,w", [(8, 48), (5, 3), (1, 4), (3, 1), (1, 1)])
    def test_forward_matches_four_term_sum(self, h, w):
        rng = np.random.default_rng(h * w)
        fmap = rng.normal(size=(h, w, 6))
        fmap[0, 0, 0] = -0.0
        edges_u = [0.0, -0.0, w - 1.0, np.nextafter(w - 1.0, 0), np.nextafter(0.0, 1),
                   w - 1.0 + 1e-9, w + 3.5, -1e-9, -7.0, 1e6, -1e6, 0.5 * (w - 1)]
        edges_v = [0.0, h - 1.0, np.nextafter(h - 1.0, 0), -0.0, h - 1.0 + 1e-9,
                   h + 2.0, -1e-9, -3.0, -1e6, 1e6, np.nextafter(0.0, 1), 0.5 * (h - 1)]
        u = np.concatenate([np.repeat(edges_u, len(edges_v)),
                            rng.uniform(-1, w, size=100)])
        v = np.concatenate([np.tile(edges_v, len(edges_u)),
                            rng.uniform(-1, h, size=100)])
        got, _ = sample_one_map(fmap, u, v)
        assert same_bits(got, sample_by_fancy_index(fmap, u, v))

    @pytest.mark.parametrize("n", [1, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1, 2000])
    def test_stacked_table_matches_four_term_sum_at_block_edges(self, n):
        # six maps stacked into one table and sampled at (n, 6) coordinates,
        # POINT_BLOCK rows at a time; every map's first node is -0.0, so
        # the 1 x 1 map reads -0.0 through all four taps at the first point
        rng = np.random.default_rng(n)
        shapes = [(8, 48), (5, 3), (1, 4), (3, 1), (1, 1), (4, 6)]
        fmaps = [rng.normal(size=(h, w, 5)) for h, w in shapes]
        for fmap in fmaps:
            fmap[0, 0, 0] = -0.0
        hs, ws = np.array(shapes).T
        sizes = hs * ws
        table = np.concatenate([fmap.reshape(-1, 5) for fmap in fmaps])
        grid = (np.cumsum(sizes) - sizes, hs, ws)
        u = rng.uniform(-1.0, ws + 1.0, size=(n, 6))
        v = rng.uniform(-1.0, hs + 1.0, size=(n, 6))
        u[0], v[0] = 0.0, -0.0
        got, _ = ops.bilinear_sample_forward(table, u, v, grid)
        assert same_bits(got, sample_by_fancy_index(table, u, v, grid))
        assert np.signbit(got[0, 4, 0])


def occluded_cloud(n=300, blind=5, seed=0):
    """A room-sized cloud projected on planes sized to its first n points,
    plus `blind` points outside every orthographic extent and above the
    cylindrical field of view; some inner points leave the cylindrical
    view too."""
    rng = np.random.default_rng(seed)
    inner = rng.uniform(-3, 3, size=(n, 3))
    inner[:, 2] = rng.uniform(0.0, 6.0, size=n)
    specs = default_plane_specs(PointCloud(positions=inner))
    far = np.column_stack([rng.uniform(-1, 1, blind), rng.uniform(40, 60, blind),
                           rng.uniform(300, 400, blind)])
    cloud = PointCloud(positions=np.concatenate([inner, far]))
    return cloud, hexplane_project(cloud, specs)


def feature_maps(hexset, c_f, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=((p.spec.height + 3) // 4, (p.spec.width + 3) // 4, c_f))
            for p in hexset.planes]


class TestGatherAndOffsets:
    def test_some_points_are_out_of_fov_and_some_blind(self):
        _, hexset = occluded_cloud()
        valid = np.stack([p.index.coords.in_fov for p in hexset.planes], axis=1)
        assert (~valid[:, 5]).sum() > 5 and valid[:-5].all(axis=1).sum() > 0
        assert not valid[-5:].any()

    @pytest.mark.parametrize("block", [None, POINT_BLOCK], ids=["whole_batch", "point_blocks"])
    def test_gather_matches_masked_gather(self, block):
        # 305 points: the last POINT_BLOCK block is partial and holds the blind rows
        cloud, hexset = occluded_cloud()
        fmaps = feature_maps(hexset, 4)
        planes = stack_planes(fmaps, hexset)
        if block is None:
            gathered, valid, _ = gather_plane_features(planes, slice(None))
        else:
            assert cloud.n % block
            parts = [gather_plane_features(planes, slice(s, s + block))
                     for s in range(0, cloud.n, block)]
            gathered = np.concatenate([part[0] for part in parts])
            valid = np.concatenate([part[1] for part in parts])
        want = np.zeros_like(gathered)
        for m, (fmap, plane) in enumerate(zip(fmaps, hexset.planes)):
            c, (h, w) = plane.index.coords, plane.raster.shape[:2]
            mask = c.in_fov
            want[mask, m] = sample_by_fancy_index(
                fmap, c.u[mask] * (fmap.shape[1] / w), c.v[mask] * (fmap.shape[0] / h))
            assert np.array_equal(valid[:, m], mask)
        assert same_bits(gathered, want)

    def test_backward_without_mask_matches_masked_scatter(self):
        # the attention backward leaves exact zeros on masked planes, so
        # scattering every row adds nothing to any bin
        cloud, hexset = occluded_cloud()
        rng = np.random.default_rng(2)
        fmaps = feature_maps(hexset, 4)
        gathered, valid, gather_cache = gather_plane_features(stack_planes(fmaps, hexset),
                                                              slice(None))
        offsets, _ = whole_offsets(cloud, hexset)
        params = init_attention_params(5, 4, heads=2, head_dim=3, c_out=6, rng=rng)
        fused, cache = cross_attention_forward(rng.normal(size=(cloud.n, 5)), gathered,
                                               valid, offsets, params, 2)
        d_gathered = cross_attention_backward(rng.normal(size=fused.shape), cache)["gathered"]
        assert np.all(d_gathered[~valid] == 0.0)
        dmaps = gather_plane_features_backward(d_gathered, gather_cache)
        for m, (dmap, fmap, plane) in enumerate(zip(dmaps, fmaps, hexset.planes)):
            c, (h, w) = plane.index.coords, plane.raster.shape[:2]
            mask = c.in_fov
            # the masked sample's cache: a one-map sample's coordinates of
            # the in-FOV rows, not the cache under test
            _, masked = sample_one_map(
                fmap, c.u[mask] * (fmap.shape[1] / w), c.v[mask] * (fmap.shape[0] / h))
            want = ops.bilinear_sample_backward(d_gathered[mask, m], masked)
            assert same_bits(dmap, want), plane.spec.kind

    def test_offsets_match_masked_difference(self):
        cloud, hexset = occluded_cloud()
        offsets, valid = whole_offsets(cloud, hexset)
        want = np.zeros_like(offsets)
        for m, plane in enumerate(hexset.planes):
            mask = plane.index.coords.in_fov
            win = plane.index.winner.ravel()[plane.index.coords.pixel[mask]]
            want[mask, m] = cloud.positions[mask] - cloud.positions[win]
            assert np.array_equal(valid[:, m], mask)
        assert same_bits(offsets, want)


def test_forward_never_samples_a_non_finite_coordinate():
    # out of FOV a point's grid coordinates are unconstrained and may be NaN
    # or infinite; the gather samples every point, so an unguarded one would
    # become an out-of-range index and an IndexError out of the forward
    cloud, hexset = occluded_cloud()
    planes = []
    for plane in hexset.planes:
        coords = plane.index.coords
        out_fov = ~coords.in_fov
        u, v = coords.u.copy(), coords.v.copy()
        u[out_fov] = np.resize([np.nan, np.inf, -np.inf], out_fov.sum())
        v[out_fov] = np.resize([-np.inf, np.nan, np.inf], out_fov.sum())
        index = dataclasses.replace(plane.index,
                                    coords=dataclasses.replace(coords, u=u, v=v))
        planes.append(dataclasses.replace(plane, index=index))
    hexset = HexPlaneSet(tuple(planes))
    model = HexPlaneModel(ModelConfig(num_classes=3))
    out = model.forward(cloud, hexset)
    gathered, valid, (_, u, v) = gather_plane_features(
        stack_planes(feature_maps(hexset, 4), hexset), slice(None))
    assert np.isfinite(out.point_logits).all()
    assert np.all(gathered[~valid] == 0.0) and np.isfinite(gathered).all()
    for m, plane in enumerate(hexset.planes):
        assert not np.isfinite(plane.index.coords.u).all(), m
        # every coordinate the sampler saw was finite
        assert np.isfinite(u[:, m]).all() and np.isfinite(v[:, m]).all(), m
