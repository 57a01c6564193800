"""Plane encoder: stage shapes, zero propagation, oracles, fusion, the
bytes a forward keeps for its backward, the memory peaks of a train step,
a training run and an inference forward, and heap re-faulting."""

import dataclasses
import os
import resource
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from hexplane import config as cfg
from hexplane import heads, ops
from hexplane.encoder import (
    encode_plane,
    encode_plane_backward,
    feature_grid,
    fuse_scales,
    fuse_scales_backward,
    init_encoder_params,
)
from hexplane.gradcheck import grad_check
from hexplane.model import HexPlaneModel
from hexplane.projection import rasterize_labels
from hexplane.training import plane_inputs, train_toy
from test_attention import sample_one_map


class TestEncodePlane:
    def test_pyramid_shapes(self):
        params = init_encoder_params(5, (16, 32, 64), 64, np.random.default_rng(0))
        raster = np.zeros((64, 512, 5))
        pyramid, _ = encode_plane(raster, params)
        shapes = [level.shape for level in pyramid]
        assert shapes == [(32, 256, 16), (16, 128, 32), (8, 64, 64)]

    def test_zero_input_zero_bias_gives_zeros(self):
        params = init_encoder_params(3, widths=(4, 5, 6), out_channels=7,
                                     rng=np.random.default_rng(1))
        pyramid, _ = encode_plane(np.zeros((16, 24, 3)), params)
        for level in pyramid:
            assert np.all(level == 0.0)
        fused, _ = fuse_scales(pyramid, params)
        assert np.all(fused == 0.0)

    def test_conv_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 1))
        w = rng.normal(size=(3, 3, 1, 2))
        b = rng.normal(size=2)
        got, _ = ops.conv2d_forward(x, w, b)
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
        params = init_encoder_params(5, (16, 32, 64), 64, np.random.default_rng(7))
        a, _ = encode_plane(raster, params)
        b, _ = encode_plane(raster, params)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_channel_mismatch_rejected(self):
        params = init_encoder_params(5, (16, 32, 64), 64, np.random.default_rng(0))
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
            assert np.all(np.isfinite(fused))
            sampled += raster.size


class TestFuseScales:
    def test_constant_pyramid_fuses_to_constant(self):
        params = init_encoder_params(2, widths=(2, 3, 4), out_channels=5,
                                     rng=np.random.default_rng(6))
        pyramid, _ = encode_plane(np.zeros((16, 16, 2)), params)
        # overwrite with per-level constants
        pyramid = [np.full_like(level, 1.0 + i) for i, level in enumerate(pyramid)]
        fused, _ = fuse_scales(pyramid, params)
        first = fused[0, 0]
        assert np.abs(fused - first).max() < 1e-12

    def test_fused_shape_contract(self):
        params = init_encoder_params(5, (16, 32, 64), 64, np.random.default_rng(7))
        pyramid, _ = encode_plane(np.zeros((64, 512, 5)), params)
        fused, _ = fuse_scales(pyramid, params)
        assert fused.shape == (16, 128, 64)
        # odd and small rasters too: the fused map, and the aux labels pooled
        # from a label image of the raster's size, both lie on feature_grid
        sizes = [(h, w) for h in range(1, 10) for w in range(1, 10)]
        for h, w in [(64, 512), *sizes, (31, 33), (33, 31), (31, 31), (33, 33)]:
            pyramid, _ = encode_plane(np.zeros((h, w, 5)), params)
            fused, _ = fuse_scales(pyramid, params)
            assert fused.shape == (-(-h // 4), -(-w // 4), 64)
            assert fused.shape[:2] == feature_grid(h, w)
            labels = np.zeros((h, w), dtype=np.int64)
            assert heads.aux_label_grids([labels], 3)[0].shape == feature_grid(h, w)

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

    # the interpolation-matrix products sum the taps in BLAS order, not the
    # loop's; every element must stay within 4 ulp of the sum of |taps|
    @pytest.mark.parametrize("in_hw,out_hw", [((4, 6), (9, 14)), ((16, 96), (8, 48))],
                             ids=["upsample", "downsample"])
    def test_resize_forward_matches_loop_oracle(self, in_hw, out_hw):
        rng = np.random.default_rng(14)
        shape = in_hw + (3,)
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        got, _ = ops.bilinear_resize_forward(x, *out_hw)
        want = oracles.bilinear_resize_forward_reference(x, *out_hw)
        bound = 4 * np.finfo(float).eps * oracles.bilinear_resize_forward_reference(
            np.abs(x), *out_hw)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("in_hw,out_hw", [((4, 6), (9, 14)), ((16, 96), (8, 48))],
                             ids=["upsample", "downsample"])
    def test_resize_backward_matches_loop_oracle(self, in_hw, out_hw):
        rng = np.random.default_rng(13)
        shape = out_hw + (3,)
        x = rng.normal(size=in_hw + (3,))
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        _, cache = ops.bilinear_resize_forward(x, *out_hw)
        got = ops.bilinear_resize_backward(g, cache)
        want = oracles.bilinear_resize_backward_reference(g, *in_hw)
        bound = 4 * np.finfo(float).eps * oracles.bilinear_resize_backward_reference(
            np.abs(g), *in_hw)
        assert np.all(np.abs(got - want) <= bound)


def test_encoder_backward_accumulates_all_stages():
    rng = np.random.default_rng(9)
    raster = rng.normal(size=(8, 12, 3))
    params = init_encoder_params(3, widths=(2, 3, 4), out_channels=5, rng=rng)
    pyramid, enc_cache = encode_plane(raster, params)
    fused, fuse_cache = fuse_scales(pyramid, params)
    g = rng.normal(size=fused.shape)
    grad_pyramid, mix_grads = fuse_scales_backward(g, fuse_cache)
    draster, conv_grads = encode_plane_backward(grad_pyramid, enc_cache)
    assert draster.shape == raster.shape
    assert set(conv_grads) == {"conv0/W", "conv0/b", "conv1/W", "conv1/b",
                               "conv2/W", "conv2/b"}
    assert set(mix_grads) == {"mix/W", "mix/b"}
    for v in conv_grads.values():
        assert np.all(np.isfinite(v)) and np.abs(v).max() > 0
    none, skipped = encode_plane_backward(grad_pyramid, enc_cache, input_grad=False)
    assert none is None
    assert {k: v.tobytes() for k, v in skipped.items()} == {
        k: v.tobytes() for k, v in conv_grads.items()}


class TestScatterRows:
    @pytest.mark.parametrize("trailing", [(3,), (4, 3)])
    def test_repeated_ids_match_add_at_bitwise(self, trailing):
        # magnitudes spread over 16 decades so any reordering of the adds
        # shows in the low bits
        rng = np.random.default_rng(11)
        shape = (400,) + trailing
        ids = rng.integers(0, 5, size=400)
        vals = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        width = int(np.prod(trailing))
        got = ops.scatter_groups(ids, [vals.reshape(400, width)], 8, width)
        got = got.reshape((8,) + trailing)  # rows 5..7 are never hit
        want = oracles.scatter_add_reference(ids, vals, 8)
        assert np.array_equal(got, want)
        assert np.all(got[5:] == 0.0)

    @pytest.mark.parametrize("trailing", [(3,), (4, 3)])
    def test_empty_ids_give_zeros(self, trailing):
        ids = np.zeros(0, dtype=np.int64)
        vals = np.zeros((0,) + trailing)
        width = int(np.prod(trailing))
        got = ops.scatter_groups(ids, [vals.reshape(0, width)], 6, width)
        got = got.reshape((6,) + trailing)
        assert got.shape == (6,) + trailing
        assert np.array_equal(got, oracles.scatter_add_reference(ids, vals, 6))

    def test_sample_backward_matches_loop_bitwise(self):
        # 60 points on a 3x4 map: every pixel collects many taps
        rng = np.random.default_rng(12)
        fmap = rng.normal(size=(3, 4, 5))
        u = rng.uniform(-0.5, 3.5, size=60)
        v = rng.uniform(-0.5, 2.5, size=60)
        grad = rng.normal(size=(60, 5)) * 10.0 ** rng.uniform(-8, 8, size=(60, 5))
        _, cache = sample_one_map(fmap, u, v)
        got = ops.bilinear_sample_backward(grad, cache)
        want = oracles.bilinear_sample_backward_reference(grad, fmap.shape, u, v)
        assert np.array_equal(got, want)


def _cached_arrays(obj, found):
    """Every array reachable from a forward cache, keyed by the buffer it
    keeps alive: a view counts as its base, so a shared array counts once."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _cached_arrays(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _cached_arrays(item, found)
    return found


# bytes reachable from the cache of one occlusion_transfer eval forward when
# each conv layer kept its im2col matrix rather than its input
CACHE_BYTES_WITH_IM2COL = 18_135_456


def test_eval_forward_cache_keeps_no_im2col_copy():
    # a forward that is never differentiated pays for its whole cache, so a
    # copy the backward can rebuild must not be kept
    tree = cfg.load_config(Path(__file__).resolve().parents[1] / "configs"
                           / "occlusion_transfer.yaml")
    cloud = cfg.build_scene(tree["eval_scene"], "eval_scene")
    num_classes = max(cfg.scene_num_classes(tree), int(cloud.labels.max()) + 1)
    model = HexPlaneModel(cfg.build_model_config(tree, num_classes))
    hexset = plane_inputs(model.config, cloud, cfg.plane_spec_builder(tree["planes"]))
    out = model.forward(cloud, hexset, grad=True)

    im2col_bytes = input_bytes = 0
    for plane, (enc_cache, _, _) in zip(hexset.planes, out.cache["planes"]):
        in_shape = plane.raster.shape
        for conv_cache, act_cache in enc_cache:
            kh, kw, c_in, _ = conv_cache[2]
            out_h, out_w, _ = act_cache.shape
            layer_im2col = out_h * out_w * kh * kw * c_in * 8
            im2col_bytes += layer_im2col
            input_bytes += int(np.prod(in_shape)) * 8
            in_shape = act_cache.shape
            for entry in conv_cache:
                assert np.asarray(entry).nbytes < layer_im2col
    total = sum(a.nbytes for a in _cached_arrays(out.cache, {}).values())
    # the im2col matrices (5.0 MB) are gone and the inputs (2.2 MB) kept; the
    # attention keeps neither a nor g_bar, (N, h, C_f) each, 2.0 MB together
    attention_bytes = 2 * cloud.n * model.config.heads * model.config.feature_channels * 8
    assert total <= CACHE_BYTES_WITH_IM2COL - im2col_bytes + input_bytes - attention_bytes


class traced_peak:
    """tracemalloc over a `with` block: `peak` and `held` are the traced
    bytes above the block's start, the most at once and those still
    allocated at its end. Every memory bound's failure message prints the
    measured bytes, so that a failing run shows what to set a bound from."""

    def __enter__(self):
        tracemalloc.start()
        self.start = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.peak, self.held = peak - self.start, held - self.start


def _shipped(name="occlusion_transfer"):
    return cfg.load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml")


# tracemalloc peak above its start of one occlusion_transfer train step:
# 26.3 MB when the attention cached a and g_bar and its backward joined both
# halves of its 2h-wide product by concatenation; 20.2 MB when its backward
# built the (N, 2h, C_f) buffer on the whole batch beside the whole forward
# cache, 16.3 MB with point blocks and a cache that dies part by part, 13.4 MB
# since the sampler, the attention forward and the rest of its backward run
# over point blocks and the backward writes d_gathered over the cache's
# gathered features. The same scene at 10,000 points: 70.3 MB, then 54.9 MB
TRAIN_STEP_PEAK_BYTES = 14_700_000
TRAIN_STEP_10K_PEAK_BYTES = 60_500_000


def _train_step_peak(points):
    """Traced peak of one occlusion_transfer train step at `points` points."""
    tree = _shipped()
    cloud = cfg.build_scene(dict(tree["scene"], num_points=points), "scene")
    num_classes = cfg.scene_num_classes(tree)
    model = HexPlaneModel(cfg.build_model_config(tree, num_classes))
    hexset = plane_inputs(model.config, cloud, cfg.plane_spec_builder(tree["planes"]))
    aux_labels = heads.aux_label_grids(rasterize_labels(cloud, hexset), num_classes)
    aux_weight = cfg.build_train_settings(tree).aux_weight

    with traced_peak() as traced:
        out = model.forward(cloud, hexset, grad=True)
        _, d_point, d_aux = heads.composite_loss(out.point_logits, cloud.labels,
                                                 out.aux_logits, aux_labels, aux_weight)
        model.backward(out, d_point, d_aux)
    return traced.peak


def test_train_step_peak_memory():
    peak = _train_step_peak(2000)
    assert peak <= TRAIN_STEP_PEAK_BYTES, f"traced peak {peak} B"


def test_train_step_peak_memory_at_10000_points():
    peak = _train_step_peak(10_000)
    assert peak <= TRAIN_STEP_10K_PEAK_BYTES, f"traced peak {peak} B"


# tracemalloc peak above its start of a 3-step occlusion_transfer train_toy
# run with its final evaluation: 28.3 MB when each step's output, cache and
# gradients outlived the step into the next projection and the evaluation,
# 22.9 MB when they die with the step, 19.0 MB before and 16.1 MB after the
# train step's per-point temporaries went to point blocks, 15.2 MB since the
# step drops its hexplane set once the labels are rasterized
TRAIN_RUN_PEAK_BYTES = 16_700_000


def test_train_run_peak_memory_holds_one_step_at_a_time():
    tree = _shipped()
    cloud = cfg.build_scene(tree["scene"], "scene")
    eval_cloud = cfg.build_scene(tree["eval_scene"], "eval_scene")
    config = cfg.build_model_config(tree, cfg.scene_num_classes(tree))
    settings = dataclasses.replace(cfg.build_train_settings(tree), steps=3)
    with traced_peak() as traced:
        train_toy(cloud, config, settings, cfg.plane_spec_builder(tree["planes"]),
                  eval_cloud=eval_cloud, seed=tree["seed"])
    assert traced.peak <= TRAIN_RUN_PEAK_BYTES, f"traced peak {traced.peak} B"


# tracemalloc peak above its start of one occlusion_transfer eval-scene
# forward, projection excluded: 12.8 MB when an inference forward kept every
# layer's cache, 9.3 MB when each cache dies as its layer returns, 3.9 MB
# since the gather, attention and point head run over POINT_BLOCK points at
# a time (the peak was then inside encode_points), 2.4 MB since the point
# encoder's layers, the offsets and the gather's coordinates do too, the
# voxel pool scatters 8 columns at a time, and no block's gathered features
# or attention temporaries outlive their use; 2.3 MB since the last plane's
# fused map and pyramid die with the plane stage, before the point steps
EVAL_FORWARD_PEAK_BYTES = 2_700_000


def test_inference_forward_peak_memory():
    tree = _shipped()
    cloud = cfg.build_scene(tree["eval_scene"], "eval_scene")
    num_classes = max(cfg.scene_num_classes(tree), int(cloud.labels.max()) + 1)
    model = HexPlaneModel(cfg.build_model_config(tree, num_classes))
    hexset = plane_inputs(model.config, cloud, cfg.plane_spec_builder(tree["planes"]))
    with traced_peak() as traced:
        model.forward(cloud, hexset)
    assert traced.peak <= EVAL_FORWARD_PEAK_BYTES, f"traced peak {traced.peak} B"


# the same for the occlusion_transfer training scene synthesised at 20,000
# points: 89.1 MB when the gather, attention and point head ran on the whole
# batch, 38.9 MB over POINT_BLOCK blocks, set by encode_points' voxel
# pooling (33.5 MB once the train step's sampler ran over blocks too), 5.2 MB
# since every per-point layer runs over blocks and the pool's scatter over
# column groups; the peak is then in the pool, which holds an (N, 8) bin
# table and one group's first-layer columns. At 50,000 points: 83.6 MB, then
# 12.6 MB
LARGE_FORWARD_PEAK_BYTES = 5_700_000
LARGE_FORWARD_50K_PEAK_BYTES = 13_900_000


def _large_forward_peak(points):
    """Traced peak of one inference forward on the occlusion_transfer
    training scene synthesised at `points` points, projection excluded."""
    tree = _shipped()
    cloud = cfg.build_scene(dict(tree["scene"], num_points=points), "scene")
    model = HexPlaneModel(cfg.build_model_config(tree, cfg.scene_num_classes(tree)))
    hexset = plane_inputs(model.config, cloud, cfg.plane_spec_builder(tree["planes"]))
    with traced_peak() as traced:
        model.forward(cloud, hexset)
    return traced.peak


def test_large_inference_forward_peak_memory():
    peak = _large_forward_peak(20_000)
    assert peak <= LARGE_FORWARD_PEAK_BYTES, f"traced peak {peak} B"


def test_large_inference_forward_peak_memory_at_50000_points():
    peak = _large_forward_peak(50_000)
    assert peak <= LARGE_FORWARD_50K_PEAK_BYTES, f"traced peak {peak} B"


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# minor page faults per steady-state occlusion_transfer train step: 490-690
# while glibc handed freed heap pages back to the kernel, under 1 since the
# package keeps them mapped
TRAIN_STEP_FAULTS = 50


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
def test_train_steps_do_not_refault_the_heap():
    tree = _shipped()
    cloud = cfg.build_scene(tree["scene"], "scene")
    config = cfg.build_model_config(tree, cfg.scene_num_classes(tree))
    settings = dataclasses.replace(cfg.build_train_settings(tree), steps=10, eval_every=0)
    spec_fn = cfg.plane_spec_builder(tree["planes"])
    train_toy(cloud, config, dataclasses.replace(settings, steps=2), spec_fn)  # warm up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_toy(cloud, config, settings, spec_fn)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= TRAIN_STEP_FAULTS * settings.steps
