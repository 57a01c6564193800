"""Cross-attention fusion: gather, forward/backward, invariants."""

import numpy as np
import pytest

import oracles
from hexplane import ops
from hexplane.attention import (
    attention_weights,
    cross_attention_backward,
    cross_attention_forward,
    gather_plane_features,
    init_attention_params,
    init_point_encoder,
    stack_planes,
    voxel_pool,
)
from hexplane.cloud import PointCloud
from hexplane.gradcheck import (
    finite_difference,
    grad_check,
    max_relative_error,
)
from hexplane.projection import default_plane_specs, hexplane_project

HEADS = 2  # attention heads of a `make_instance` instance unless given


def make_instance(seed, n=7, m=6, c_p=5, c_f=4, heads=HEADS, head_dim=3, c_out=6,
                  all_valid=False, blind=()):
    """A random attention instance; the `blind` rows are out of FOV on every
    plane, every other row keeps plane 0."""
    rng = np.random.default_rng(seed)
    point_feats = rng.normal(size=(n, c_p))
    gathered = rng.normal(size=(n, m, c_f))
    valid = np.ones((n, m), dtype=bool)
    if not all_valid:
        valid = rng.uniform(size=(n, m)) > 0.3
        valid[:, 0] = True
    valid[list(blind)] = False
    gathered[~valid] = 0.0
    offsets = rng.normal(size=(n, m, 3))
    offsets[~valid] = 0.0
    params = init_attention_params(c_p, c_f, heads=heads, head_dim=head_dim,
                                   c_out=c_out, rng=rng)
    return point_feats, gathered, valid, offsets, params


def sample_one_map(fmap, u, v):
    """The sampler on one (h, w, C) map, stacked alone in its table and read
    through scalar bounds; returns the samples and the cache
    `ops.bilinear_sample_backward` reads."""
    h, w, c = fmap.shape
    out, taps = ops.bilinear_sample_forward(fmap.reshape(h * w, c), u, v, (0, h, w))
    return out, (fmap.shape, *taps)


class TestGatherPlaneFeatures:
    def build(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-3, 3, size=(n, 3))
        positions[:, 2] = rng.uniform(0.2, 2.5, size=n)
        cloud = PointCloud(positions=positions)
        hexset = hexplane_project(cloud, default_plane_specs(cloud))
        fmaps = []
        for plane in hexset.planes:
            h = (plane.spec.height + 3) // 4
            w = (plane.spec.width + 3) // 4
            fmaps.append(rng.normal(size=(h, w, 5)))
        return cloud, hexset, fmaps

    def test_node_exact(self):
        cloud, hexset, fmaps = self.build()
        gathered, valid, _ = gather_plane_features(stack_planes(fmaps, hexset), slice(None))
        # craft one query exactly on a feature node via the coordinate map
        plane = hexset.planes[0]
        fmap = fmaps[0]
        coords = plane.index.coords
        scale_u = fmap.shape[1] / plane.spec.width
        scale_v = fmap.shape[0] / plane.spec.height
        for i in range(cloud.n):
            uf, vf = coords.u[i] * scale_u, coords.v[i] * scale_v
            if abs(uf - round(uf)) < 1e-12 and abs(vf - round(vf)) < 1e-12:
                node = fmap[int(round(vf)), int(round(uf))]
                assert np.allclose(gathered[i, 0], node, atol=1e-12)

    def test_fabricated_node_query(self):
        rng = np.random.default_rng(3)
        fmap = rng.normal(size=(6, 8, 4))
        out, _ = sample_one_map(fmap, np.array([3.0]), np.array([2.0]))
        assert np.array_equal(out[0], fmap[2, 3])

    def test_invalid_entries_masked_and_zeroed(self):
        cloud, hexset, fmaps = self.build(seed=1)
        gathered, valid, _ = gather_plane_features(stack_planes(fmaps, hexset), slice(None))
        for m, plane in enumerate(hexset.planes):
            assert np.array_equal(valid[:, m], plane.index.coords.in_fov)
        assert np.all(gathered[~valid] == 0.0)

    @pytest.mark.parametrize("edit, field", [
        (lambda fmaps: fmaps[:5], "one feature map per plane"),
        (lambda fmaps: fmaps + fmaps[:1], "one feature map per plane"),
        (lambda fmaps: fmaps[:2] + [fmaps[2][:, 1:]] + fmaps[3:], "feature map 2 is"),
    ], ids=["five_maps", "seven_maps", "narrow_map"])
    def test_stack_planes_refuses_maps_that_do_not_fit(self, edit, field):
        _, hexset, fmaps = self.build()
        with pytest.raises(ValueError) as caught:
            stack_planes(edit(fmaps), hexset)
        assert type(caught.value) is ValueError and field in str(caught.value)

    def test_matches_bilinear_oracle(self):
        rng = np.random.default_rng(2)
        fmap = rng.normal(size=(7, 9, 3))
        u = rng.uniform(-0.5, 9.5, size=40)
        v = rng.uniform(-0.5, 7.5, size=40)
        got, _ = sample_one_map(fmap, u, v)
        want = oracles.bilinear_sample_reference(fmap, u, v)
        assert np.abs(got - want).max() < 1e-9


class TestCrossAttentionForward:
    def test_single_valid_plane_is_projected_value(self):
        point_feats, gathered, valid, offsets, params = make_instance(7)
        valid = np.zeros_like(valid)
        valid[:, 2] = True
        out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        v = gathered[:, 2, :] @ params["w_value"]  # softmax over one key is 1
        want = v @ params["w_out"]
        assert np.abs(out - want).max() < 1e-12

    def test_identical_keys_give_uniform_weights(self):
        point_feats, gathered, valid, offsets, params = make_instance(8, all_valid=True)
        gathered = np.repeat(gathered[:, :1, :], 6, axis=1)
        offsets = np.zeros_like(offsets)
        out, cache = cross_attention_forward(
            point_feats, gathered, np.ones_like(valid), offsets, params, HEADS
        )
        weights = attention_weights(cache)
        assert np.abs(weights - 1.0 / 6.0).max() < 1e-12
        want = (gathered[:, 0, :] @ params["w_value"]) @ params["w_out"]
        assert np.abs(out - want).max() < 1e-10

    def test_matches_dense_reference(self):
        point_feats, gathered, valid, offsets, params = make_instance(9)
        out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        want = oracles.attention_reference(point_feats, gathered, valid, offsets, params, HEADS)
        assert np.abs(out - want).max() < 1e-10

    def test_zero_offsets_make_w_pos_irrelevant(self):
        # the offset embedding is bias-free, so a zero offset embeds to zero
        # whatever w_pos holds
        point_feats, gathered, valid, offsets, params = make_instance(4)
        offsets = np.zeros_like(offsets)
        out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        rng = np.random.default_rng(5)
        shape = params["w_pos"].shape
        for w_pos in (np.zeros(shape), 100.0 * rng.normal(size=shape)):
            other = {**params, "w_pos": w_pos}
            again, _ = cross_attention_forward(point_feats, gathered, valid, offsets, other, HEADS)
            assert np.array_equal(out, again)

    def test_zero_valid_planes_give_zero_context(self):
        point_feats, gathered, valid, offsets, params = make_instance(10, blind=(3,))
        out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        assert np.all(attention_weights(cache)[3] == 0.0)
        assert np.array_equal(out[3], np.zeros(out.shape[1]))
        assert np.all(np.isfinite(out))

    def test_blind_point_leaves_other_rows_byte_identical(self):
        point_feats, gathered, valid, offsets, params = make_instance(10, blind=(3,))
        seen = valid.copy()
        seen[3, 0] = True
        r = np.random.default_rng(1).normal(size=(point_feats.shape[0], 6))
        results = []
        for mask in (valid, seen):
            out, cache = cross_attention_forward(point_feats, gathered, mask, offsets, params,
                                                 HEADS)
            results.append((out, cache, cross_attention_backward(r, cache)))
        (out_b, cache_b, grads_b), (out_s, cache_s, grads_s) = results
        rows = np.arange(point_feats.shape[0]) != 3
        assert np.array_equal(out_b[rows], out_s[rows])
        assert np.array_equal(attention_weights(cache_b)[rows],
                              attention_weights(cache_s)[rows])
        for name in ("point_feats", "gathered"):
            assert np.array_equal(grads_b[name][rows], grads_s[name][rows]), name

    def test_softmax_normalized_over_valid(self):
        point_feats, gathered, valid, offsets, params = make_instance(11)
        _, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        weights = attention_weights(cache)
        assert np.abs(weights.sum(axis=2) - 1.0).max() < 1e-6
        assert np.all(weights[~valid[:, None, :].repeat(HEADS, 1)] == 0.0)

    def test_mask_invariance_exact(self):
        point_feats, gathered, valid, offsets, params = make_instance(12)
        out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        tampered = gathered.copy()
        tampered[~valid] = np.random.default_rng(0).normal(size=(~valid).sum() * 4).reshape(-1, 4) * 100
        out2, _ = cross_attention_forward(point_feats, tampered, valid, offsets, params, HEADS)
        assert np.array_equal(out, out2)

    def test_permutation_equivariance_exact(self):
        point_feats, gathered, valid, offsets, params = make_instance(13)
        out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        perm = np.random.default_rng(1).permutation(point_feats.shape[0])
        out_p, _ = cross_attention_forward(
            point_feats[perm], gathered[perm], valid[perm], offsets[perm], params, HEADS
        )
        assert np.array_equal(out[perm], out_p)

    def test_score_lowering_offset_reduces_weight(self):
        point_feats, gathered, valid, offsets, params = make_instance(14, all_valid=True)
        n = point_feats.shape[0]
        direction = np.random.default_rng(2).normal(size=3)
        weights_at = []
        for scale in (0.0, 1.0, 2.0, 4.0):
            trial = offsets.copy()
            trial[:, 3, :] = direction * scale
            _, cache = cross_attention_forward(point_feats, gathered, valid, trial, params, HEADS)
            weights_at.append(attention_weights(cache)[:, :, 3])
        scores_move = []
        q = (point_feats @ params["w_query"]).reshape(n, HEADS, -1)
        dphi = (direction @ params["w_pos"]).reshape(HEADS, -1)
        slope = np.einsum("nhd,hd->nh", q, dphi)  # d(score)/d(scale) per head
        for i in range(n):
            for h in range(HEADS):
                series = [w[i, h] for w in weights_at]
                if slope[i, h] < -1e-6:
                    assert series[0] > series[1] > series[2] > series[3]
                elif slope[i, h] > 1e-6:
                    assert series[0] < series[1] < series[2] < series[3]


class TestCrossAttentionBackward:
    def test_zero_upstream_zero_grads(self):
        point_feats, gathered, valid, offsets, params = make_instance(15)
        out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        grads = cross_attention_backward(np.zeros_like(out), cache)
        for value in grads.values():
            assert np.all(value == 0.0)

    def test_invalid_plane_gets_exactly_zero_gradient(self):
        point_feats, gathered, valid, offsets, params = make_instance(16)
        out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        rng = np.random.default_rng(0)
        grads = cross_attention_backward(rng.normal(size=out.shape), cache)
        assert np.all(grads["gathered"][~valid] == 0.0)

    def test_zero_valid_planes_get_zero_gradient(self):
        point_feats, gathered, valid, offsets, params = make_instance(16, blind=(3,))
        r = np.random.default_rng(0).normal(size=(point_feats.shape[0], 6))
        _, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        grads = cross_attention_backward(r, cache)
        assert np.all(grads["gathered"][3] == 0.0)
        assert np.array_equal(grads["point_feats"][3], np.zeros(point_feats.shape[1]))
        for value in grads.values():
            assert np.all(np.isfinite(value))

    def test_cache_holds_no_key_or_value_tensor(self):
        # micro sizes have h*d = 6 > C_f = 4, so an (N, M, h, d) array would
        # outgrow the gathered features
        point_feats, gathered, valid, offsets, params = make_instance(19)
        _, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        arrays = [x for x in cache if isinstance(x, np.ndarray)]
        assert max(x.size for x in arrays) <= gathered.size
        assert gathered.size < gathered.shape[0] * gathered.shape[1] * params["w_key"].shape[1]
        # nor a = q W_key^T or g_bar = weights @ gathered, (N, h, C_f) each,
        # which one product rebuilds
        n, _, c_f = gathered.shape
        assert n * HEADS * c_f not in {x.size for x in arrays}

    # the GEMM/matmul code sums in a different order than the einsum oracle;
    # each output must agree to 1e-13 of its largest entry
    @pytest.mark.parametrize("dims", [
        {},
        dict(n=300, c_p=64, c_f=64, heads=4, head_dim=16, c_out=64),
        dict(n=300, c_p=32, c_f=32, heads=4, head_dim=8, c_out=32),
        dict(n=40, blind=(0, 17, 39)),
    ], ids=["micro", "shipped_widths", "occlusion_transfer", "blind_points"])
    def test_matches_einsum_reference(self, dims):
        point_feats, gathered, valid, offsets, params = make_instance(18, **dims)
        heads = dims.get("heads", HEADS)
        r = np.random.default_rng(4).normal(size=(gathered.shape[0], params["w_out"].shape[1]))
        out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, heads)
        grads = cross_attention_backward(r, cache)
        want_out, want_grads = oracles.cross_attention_reference(
            point_feats, gathered, valid, offsets, params, heads, r)
        assert np.abs(out - want_out).max() <= 1e-13 * np.abs(want_out).max()
        assert set(grads) == set(want_grads)
        for name, want in want_grads.items():
            assert np.abs(grads[name] - want).max() <= 1e-13 * np.abs(want).max(), name
        assert np.all(attention_weights(cache)[~valid[:, None, :].repeat(heads, 1)] == 0.0)
        assert np.all(grads["gathered"][~valid] == 0.0)

    def test_matches_finite_differences(self):
        # the gradcheck instance holds one point out of FOV on every plane
        for seed in (20, 21, 22):
            report = grad_check("attention", seed=seed)
            assert report.passed(1e-4), (seed, report.errors)

    def test_blind_point_matches_finite_differences(self):
        point_feats, gathered, valid, offsets, params = make_instance(23, blind=(2,))
        r = np.random.default_rng(5).normal(size=(point_feats.shape[0], 6))
        groups = {"point_feats": point_feats, "gathered": gathered}
        groups.update(params)

        def objective():
            out, _ = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
            return float((out * r).sum())

        _, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        grads = cross_attention_backward(r, cache)
        for name, arr in groups.items():
            numeric = finite_difference(objective, arr)
            assert max_relative_error(grads[name], numeric) < 1e-4, name

    def test_corrupted_backward_detected(self):
        # flipping one sign in the analytic gradient must trip the check
        point_feats, gathered, valid, offsets, params = make_instance(17)
        rng = np.random.default_rng(3)
        r = rng.normal(size=(point_feats.shape[0], params["w_out"].shape[1]))

        def objective():
            out, _ = cross_attention_forward(
                point_feats, gathered, valid, offsets, params, HEADS
            )
            return float((out * r).sum())

        out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, HEADS)
        grads = cross_attention_backward(r, cache)
        corrupted = grads["w_query"].copy()
        corrupted[0, 0] = -corrupted[0, 0] - 1.0
        numeric = finite_difference(objective, params["w_query"])
        assert max_relative_error(grads["w_query"], numeric) < 1e-4
        assert max_relative_error(corrupted, numeric) > 1e-4


class TestEncodePoints:
    @pytest.mark.parametrize("voxel_size", [0.4, 0.05, 1e-9])
    def test_voxel_groups_match_row_unique(self, voxel_size):
        # 1e-9 numbers more cells than an int64 key can hold
        rng = np.random.default_rng(13)
        positions = rng.uniform(-50.0, 50.0, size=(400, 3))
        positions[200:] = positions[:200]  # shared cells
        params = init_point_encoder(4, 6, rng=rng)
        feats = rng.normal(size=(400, 4))
        inverse, _, _ = voxel_pool(positions, feats, params, voxel_size=voxel_size)
        cells = np.floor(
            (positions - positions.min(axis=0)) / voxel_size).astype(np.int64)
        _, want = np.unique(cells, axis=0, return_inverse=True)
        assert np.array_equal(inverse, want)

    @pytest.mark.parametrize("width", [4, 6, 32])
    def test_grouped_pool_matches_one_scatter_of_every_column(self, width):
        # the pool scatters gcd(width, 8) columns at a time, each group's
        # first-layer columns made when reached; the means must have the
        # bits of one scatter of the whole-batch layer. Magnitudes spread
        # over 16 decades, so a reordered add shows in the low bits
        rng = np.random.default_rng(14)
        positions = rng.uniform(-5.0, 5.0, size=(300, 3))
        positions[150:200] = positions[0]  # one cell of 51 points
        positions[200:] = positions[50:150]  # cells of two
        feats = rng.normal(size=(300, 4)) * 10.0 ** rng.uniform(-8, 8, size=(300, 4))
        params = init_point_encoder(4, width, rng=rng)
        params["b1"] += rng.normal(size=width)
        inverse, counts, means = voxel_pool(positions, feats, params, voxel_size=0.5)
        assert counts.max() == 51 and (counts == 2).any() and (counts == 1).any()
        h1, _ = ops.leaky_relu_forward(feats @ params["w1"] + params["b1"])
        want = (ops.scatter_groups(inverse, [h1], len(counts), width)[inverse]
                / counts[inverse][:, None])
        assert means[inverse].tobytes() == want.tobytes()

    def test_cell_index_past_int64_refused(self):
        # 100 m / 1e-300 is finite but no int64: the cast used to warn and
        # pool every point into cells of garbage indices
        rng = np.random.default_rng(13)
        positions = rng.uniform(-50.0, 50.0, size=(40, 3))
        params = init_point_encoder(4, 6, rng=rng)
        with pytest.raises(ValueError, match="voxel size 1e-300"):
            voxel_pool(positions, rng.normal(size=(40, 4)), params, voxel_size=1e-300)
