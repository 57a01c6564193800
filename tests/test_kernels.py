"""The forward hot path, pinned bit for bit to its plain numpy statement.

Each kernel below makes one pass over reused buffers instead of building
fresh temporaries. Each test writes the straightforward expression inline
and requires the same bits: -0.0, infinities and NaN included.
"""

import warnings

import numpy as np
import pytest

from hexplane import ops
from hexplane.attention import (
    cross_attention_backward,
    cross_attention_forward,
    gather_plane_features,
    gather_plane_features_backward,
    init_attention_params,
)
from hexplane.cloud import PointCloud
from hexplane.model import HexPlaneModel, ModelConfig
from hexplane.projection import default_plane_specs, gather_offsets, hexplane_project

EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeakyRelu:
    @pytest.mark.parametrize("slope", [0.1, 0.5, 1.0, 1e-3])
    def test_forward_and_backward_match_where(self, slope):
        rng = np.random.default_rng(0)
        x = np.concatenate([EDGES, rng.normal(size=200)]).reshape(-1, 3)
        grad = np.concatenate([EDGES[::-1], rng.normal(size=200)]).reshape(-1, 3)
        y, cache = ops.leaky_relu_forward(x, slope)
        assert same_bits(y, np.where(x >= 0, x, slope * x))
        assert same_bits(ops.leaky_relu_backward(grad, cache),
                         np.where(x >= 0, grad, slope * grad))

    @pytest.mark.parametrize("slope", [-0.1, 0.0, 1.5, np.nan])
    def test_slope_outside_the_exact_range_is_refused(self, slope):
        # max(x, slope * x) equals the rectifier only for 0 < slope <= 1;
        # at slope 0, +inf would map to 0 * inf = NaN
        with pytest.raises(ValueError, match="slope"):
            ops.leaky_relu_forward(np.ones(3), slope)


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


class TestConv2d:
    @pytest.mark.parametrize("h,w,c_in,k,pad", [
        (7, 5, 3, 3, 1), (7, 5, 3, 3, 0), (5, 7, 1, 3, 1), (5, 7, 1, 3, 0),
        (1, 1, 2, 3, 1), (9, 4, 2, 1, 0), (9, 4, 2, 1, 1), (6, 6, 4, 2, 0)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_matches_index_im2col(self, h, w, c_in, k, stride, pad):
        rng = np.random.default_rng(h * 100 + w * 10 + k)
        x = rng.normal(size=(h, w, c_in))
        x[0, 0, 0] = -0.0
        wt = rng.normal(size=(k, k, c_in, 5))
        b = rng.normal(size=5)
        cols, (out_h, out_w) = im2col_by_index(x, k, k, stride, pad)
        want = (cols @ wt.reshape(-1, 5) + b).reshape(out_h, out_w, 5)
        got, cache = ops.conv2d_forward(x, wt, b, stride=stride, pad=pad)
        assert same_bits(got, want)
        assert same_bits(cache[0], cols)
        assert cache[2] == wt.shape  # the benchmark's FLOP counter reads it


def sample_by_fancy_index(fmap, u, v):
    """The four-term bilinear sample, each tap a fresh fancy-index gather."""
    h, w, c = fmap.shape
    x, y = np.clip(u, 0.0, w - 1.0), np.clip(v, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(x).astype(np.int64), w - 1)
    y0 = np.minimum(np.floor(y).astype(np.int64), h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (x - x0)[:, None], (y - y0)[:, None]
    flat = fmap.reshape(h * w, c)
    return (flat[y0 * w + x0] * ((1 - fy) * (1 - fx))
            + flat[y0 * w + x1] * ((1 - fy) * fx)
            + flat[y1 * w + x0] * (fy * (1 - fx))
            + flat[y1 * w + x1] * (fy * fx))


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
        got, _ = ops.bilinear_sample_forward(fmap, u, v)
        assert same_bits(got, sample_by_fancy_index(fmap, u, v))


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

    def test_gather_matches_masked_gather(self):
        _, hexset = occluded_cloud()
        fmaps = feature_maps(hexset, 4)
        gathered, valid, caches = gather_plane_features(fmaps, hexset)
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
        gathered, valid, caches = gather_plane_features(feature_maps(hexset, 4), hexset)
        offsets, _ = gather_offsets(cloud, hexset)
        params = init_attention_params(5, 4, heads=2, head_dim=3, c_out=6, rng=rng)
        fused, cache = cross_attention_forward(rng.normal(size=(cloud.n, 5)), gathered,
                                               valid, offsets, params, 2)
        d_gathered = cross_attention_backward(rng.normal(size=fused.shape), cache)["gathered"]
        assert np.all(d_gathered[~valid] == 0.0)
        dmaps = gather_plane_features_backward(d_gathered, caches)
        for m, (dmap, plane) in enumerate(zip(dmaps, hexset.planes)):
            mask = plane.index.coords.in_fov
            # the masked sample's cache: the same per-point taps, in-FOV rows only
            masked = (caches[m][0], *(a[mask] for a in caches[m][1:]))
            want = ops.bilinear_sample_backward(d_gathered[mask, m], masked)
            assert same_bits(dmap, want), plane.spec.kind

    def test_offsets_match_masked_difference(self):
        cloud, hexset = occluded_cloud()
        offsets, valid = gather_offsets(cloud, hexset)
        want = np.zeros_like(offsets)
        for m, plane in enumerate(hexset.planes):
            mask = plane.index.coords.in_fov
            win = plane.index.winner.ravel()[plane.index.coords.pixel]
            want[mask, m] = cloud.positions[mask] - cloud.positions[win]
            assert np.array_equal(valid[:, m], mask)
        assert same_bits(offsets, want)


def test_forward_never_samples_a_non_finite_coordinate():
    # x = +-1.5e308 makes every xy_top and xz_* `u` NaN; the gather samples
    # every point, so an unguarded NaN coordinate would become an
    # out-of-range index and an IndexError out of the forward
    rng = np.random.default_rng(0)
    pos = rng.uniform(-1, 1, size=(50, 3))
    pos[:, 0] = np.where(pos[:, 0] < 0, -1.5e308, 1.5e308)
    cloud = PointCloud(positions=pos)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        hexset = hexplane_project(cloud, default_plane_specs(cloud))
        assert np.isnan(hexset.planes[0].index.coords.u).all()
        model = HexPlaneModel(ModelConfig(num_classes=3))
        out = model.forward(cloud, hexset)
        gathered, valid, caches = gather_plane_features(feature_maps(hexset, 4), hexset)
    assert out.point_logits.shape == (50, 3)
    assert np.all(gathered[~valid] == 0.0) and np.isfinite(gathered).all()
    for m, (_, _, _, _, _, fx, fy) in enumerate(caches):
        # every coordinate the sampler saw was finite
        assert np.isfinite(fx).all() and np.isfinite(fy).all(), m
