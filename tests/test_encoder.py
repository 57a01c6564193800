"""Plane encoder: stage shapes, zero propagation, oracles, and fusion."""

import numpy as np
import pytest

import oracles
from hexplane import ops
from hexplane.encoder import (
    encode_plane,
    encode_plane_backward,
    fuse_scales,
    fuse_scales_backward,
    init_encoder_params,
)
from hexplane.gradcheck import grad_check


class TestEncodePlane:
    def test_pyramid_shapes(self):
        params = init_encoder_params(5, rng=np.random.default_rng(0))
        raster = np.zeros((64, 512, 5))
        pyramid, _ = encode_plane(raster, params)
        shapes = [fm.data.shape for fm in pyramid]
        assert shapes == [(32, 256, 16), (16, 128, 32), (8, 64, 64)]
        assert [fm.stride for fm in pyramid] == [2, 4, 8]

    def test_zero_input_zero_bias_gives_zeros(self):
        params = init_encoder_params(3, widths=(4, 5, 6), out_channels=7,
                                     rng=np.random.default_rng(1))
        pyramid, _ = encode_plane(np.zeros((16, 24, 3)), params)
        for fm in pyramid:
            assert np.all(fm.data == 0.0)
        fused, _ = fuse_scales(pyramid, params)
        assert np.all(fused.data == 0.0)

    def test_conv_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 1))
        w = rng.normal(size=(3, 3, 1, 2))
        b = rng.normal(size=2)
        got, _ = ops.conv2d_forward(x, w, b, stride=2, pad=1)
        want = oracles.conv2d_reference(x, w, b, stride=2, pad=1)
        assert np.abs(got - want).max() < 1e-6

    def test_conv_oracle_multichannel_strides(self):
        rng = np.random.default_rng(3)
        for h, w_, c_in, c_out in [(7, 9, 3, 4), (6, 6, 2, 5), (9, 5, 4, 2)]:
            x = rng.normal(size=(h, w_, c_in))
            w = rng.normal(size=(3, 3, c_in, c_out))
            b = rng.normal(size=c_out)
            got, _ = ops.conv2d_forward(x, w, b)
            want = oracles.conv2d_reference(x, w, b)
            assert np.abs(got - want).max() < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        raster = rng.normal(size=(12, 20, 5))
        params = init_encoder_params(5, rng=np.random.default_rng(7))
        a, _ = encode_plane(raster, params)
        b, _ = encode_plane(raster, params)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.data, fb.data)

    def test_channel_mismatch_rejected(self):
        params = init_encoder_params(5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="channels"):
            encode_plane(np.zeros((8, 8, 3)), params)

    def test_finite_in_finite_out_fuzz(self):
        # >= 1e4 random input samples across many shapes and parameter draws
        rng = np.random.default_rng(5)
        sampled = 0
        while sampled < 10_000:
            h = int(rng.integers(5, 20))
            w = int(rng.integers(5, 20))
            c = int(rng.integers(1, 6))
            raster = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(h, w, c))
            params = init_encoder_params(
                c, widths=(3, 4, 5), out_channels=4,
                rng=np.random.default_rng(int(rng.integers(1 << 30))),
            )
            pyramid, _ = encode_plane(raster, params)
            fused, _ = fuse_scales(pyramid, params)
            assert np.all(np.isfinite(fused.data))
            sampled += raster.size


class TestFuseScales:
    def test_constant_pyramid_fuses_to_constant(self):
        params = init_encoder_params(2, widths=(2, 3, 4), out_channels=5,
                                     rng=np.random.default_rng(6))
        pyramid, _ = encode_plane(np.zeros((16, 16, 2)), params)
        # overwrite with per-level constants
        from hexplane.encoder import FeatureMap
        pyramid = [
            FeatureMap(data=np.full_like(fm.data, 1.0 + i), stride=fm.stride)
            for i, fm in enumerate(pyramid)
        ]
        fused, _ = fuse_scales(pyramid, params)
        first = fused.data[0, 0]
        assert np.abs(fused.data - first).max() < 1e-12

    def test_fused_shape_contract(self):
        params = init_encoder_params(5, rng=np.random.default_rng(7))
        pyramid, _ = encode_plane(np.zeros((64, 512, 5)), params)
        fused, _ = fuse_scales(pyramid, params)
        assert fused.data.shape == (16, 128, 64)
        assert fused.stride == 4

    def test_bilinear_upsample_exact_on_ramps(self):
        # endpoint-aligned resampling reproduces any linear ramp exactly
        h, w = 6, 9
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        ramp = (2.0 * ii + 0.5 * jj + 3.0)[:, :, None]
        out, _ = ops.bilinear_resize_forward(ramp, 11, 17)
        src_i = np.arange(11) * (h - 1) / 10.0
        src_j = np.arange(17) * (w - 1) / 16.0
        want = 2.0 * src_i[:, None] + 0.5 * src_j[None, :] + 3.0
        assert np.abs(out[:, :, 0] - want).max() < 1e-12

    def test_backward_matches_fd(self):
        report = grad_check("encoder", seed=11)
        assert report.passed(1e-4), report.errors

    def test_bilinear_resize_backward_is_transpose(self):
        # <grad, R(x)> must equal <R^T(grad), x> for a linear operator
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 7, 2))
        g = rng.normal(size=(9, 13, 2))
        y, cache = ops.bilinear_resize_forward(x, 9, 13)
        xt = ops.bilinear_resize_backward(g, cache)
        assert np.allclose((g * y).sum(), (xt * x).sum(), atol=1e-12)


def test_encoder_backward_accumulates_all_stages():
    rng = np.random.default_rng(9)
    raster = rng.normal(size=(8, 12, 3))
    params = init_encoder_params(3, widths=(2, 3, 4), out_channels=5, rng=rng)
    pyramid, enc_cache = encode_plane(raster, params)
    fused, fuse_cache = fuse_scales(pyramid, params)
    g = rng.normal(size=fused.data.shape)
    grad_pyramid, mix_grads = fuse_scales_backward(g, fuse_cache)
    draster, conv_grads = encode_plane_backward(grad_pyramid, enc_cache)
    assert draster.shape == raster.shape
    assert set(conv_grads) == {"conv0/W", "conv0/b", "conv1/W", "conv1/b",
                               "conv2/W", "conv2/b"}
    assert set(mix_grads) == {"mix/W", "mix/b"}
    for v in conv_grads.values():
        assert np.all(np.isfinite(v)) and np.abs(v).max() > 0


class TestScatterRows:
    @pytest.mark.parametrize("trailing", [(3,), (4, 3)])
    def test_repeated_ids_match_add_at_bitwise(self, trailing):
        # magnitudes spread over 16 decades so any reordering of the adds
        # shows in the low bits
        rng = np.random.default_rng(11)
        shape = (400,) + trailing
        ids = rng.integers(0, 5, size=400)
        vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        got = ops.scatter_rows(ids, vals, 8)  # rows 5..7 are never hit
        want = oracles.scatter_add_reference(ids, vals, 8)
        assert np.array_equal(got, want)
        assert np.all(got[5:] == 0.0)

    @pytest.mark.parametrize("trailing", [(3,), (4, 3)])
    def test_empty_ids_give_zeros(self, trailing):
        ids = np.zeros(0, dtype=np.int64)
        vals = np.zeros((0,) + trailing)
        got = ops.scatter_rows(ids, vals, 6)
        assert got.shape == (6,) + trailing
        assert np.array_equal(got, oracles.scatter_add_reference(ids, vals, 6))

    def test_sample_backward_matches_loop_bitwise(self):
        # 60 points on a 3x4 map: every pixel collects many taps
        rng = np.random.default_rng(12)
        fmap = rng.normal(size=(3, 4, 5))
        u = rng.uniform(-0.5, 3.5, size=60)
        v = rng.uniform(-0.5, 2.5, size=60)
        grad = rng.normal(size=(60, 5)) * 10.0 ** rng.uniform(-8, 8, size=(60, 5))
        _, cache = ops.bilinear_sample_forward(fmap, u, v)
        got = ops.bilinear_sample_backward(grad, cache)
        want = oracles.bilinear_sample_backward_reference(grad, fmap.shape, u, v)
        assert np.array_equal(got, want)

    def test_resize_backward_matches_loop_bitwise(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 6, 3))
        g = rng.normal(size=(9, 14, 3)) * 10.0 ** rng.uniform(-8, 8, size=(9, 14, 3))
        _, cache = ops.bilinear_resize_forward(x, 9, 14)
        got = ops.bilinear_resize_backward(g, cache)
        assert np.array_equal(got, oracles.bilinear_resize_backward_reference(g, 4, 6))
