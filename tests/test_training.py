"""Model assembly, training loop, checkpoints, and gradient flow."""

from pathlib import Path

import numpy as np
import pytest

from hexplane import config as cfg
from hexplane.attention import attention_weights
from hexplane.checkpoint import load_checkpoint, save_checkpoint
from hexplane.cloud import PointCloud, SceneSpec, synth_scene
from hexplane import model as model_module
from hexplane.heads import aux_label_grids, composite_loss, downsample_labels
from hexplane.gradcheck import micro_model_instance
from hexplane.model import HexPlaneModel, ModelConfig
from hexplane.ops import row_blocks
from hexplane.projection import (
    SensorConfig,
    default_plane_specs,
    hexplane_project,
    rasterize_labels,
)
from hexplane.training import (
    DivergenceError,
    TrainSettings,
    train_toy,
)

TINY_SENSOR = SensorConfig(phi_up=1.0, phi_down=0.6)
TINY_RES = {
    "xy_top": (24, 24),
    "xz_front": (16, 48),
    "xz_back": (16, 48),
    "yz_left": (16, 48),
    "yz_right": (16, 48),
    "cylindrical": (16, 48),
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_model_config(use_planes=True, seed=0):
    return ModelConfig(
        num_classes=3,
        point_width=8,
        voxel_size=0.8,
        encoder_widths=(3, 4, 5),
        feature_channels=6,
        heads=2,
        head_dim=3,
        fused_channels=6,
        use_planes=use_planes,
        seed=seed,
    )


def tiny_scene(seed=0, n=300):
    from hexplane.cloud import Primitive

    return synth_scene(
        SceneSpec(
            seed=seed,
            num_points=n,
            num_classes=3,
            room_extent=(6.0, 6.0, 2.5),
            primitives=(
                Primitive("box", center=(1.5, 1.0, 0.5), size=(1.0, 1.0, 1.0), class_id=2),
            ),
        )
    )


def tiny_spec_fn(cloud):
    return default_plane_specs(cloud, sensor=TINY_SENSOR, resolutions=TINY_RES)


def tiny_settings(**kw):
    base = dict(steps=5, lr_max=1e-3, eval_every=0, aux_weight=0.4)
    base.update(kw)
    return TrainSettings(**base)


def _blind_at_block_edge(points):
    """Model, cloud and hexplane set with the points at rows 255 and 256
    (those that exist) moved out of FOV on every plane: far outside the
    orthographic extents, which come from the cloud before the move, and
    straight above the cylinder's field of view. `points` is a point count
    for the tiny model and scene, or "eval" for the shipped config's model
    and its 1,931-point eval scene."""
    if points == "eval":
        tree = cfg.load_config(CONFIGS / "occlusion_transfer.yaml")
        cloud = cfg.build_scene(tree["eval_scene"], "eval_scene")
        num_classes = max(cfg.scene_num_classes(tree), int(cloud.labels.max()) + 1)
        model = HexPlaneModel(cfg.build_model_config(tree, num_classes))
        specs = cfg.plane_spec_builder(tree["planes"])(cloud)
    else:
        cloud = tiny_scene(n=points)
        model = HexPlaneModel(tiny_model_config())
        specs = tiny_spec_fn(cloud)
    positions = cloud.positions.copy()
    blind = [row for row in (255, 256) if row < cloud.n]
    positions[blind] = (50.0, 50.0, 5000.0)
    cloud = PointCloud(positions, cloud.features, cloud.labels)
    hexset = hexplane_project(cloud, specs, channels=model.config.raster_channels)
    for plane in hexset.planes:
        assert not plane.index.coords.in_fov[blind].any()
    return model, cloud, hexset


class TestModel:
    def test_forward_shapes(self):
        cloud = tiny_scene()
        model = HexPlaneModel(tiny_model_config())
        hexset = hexplane_project(cloud, tiny_spec_fn(cloud))
        out = model.forward(cloud, hexset)
        assert out.point_logits.shape == (cloud.n, 3)
        assert len(out.aux_logits) == 6

    # the inference forward runs its point step over POINT_BLOCK (256) rows
    # at a time after one plane stage, the grad=True forward as one block:
    # the cases put the last block at one row short, exact, and one row
    # over, with a point out of FOV on every plane at the rows either side
    # of the first block edge. A one-row rest would go through numpy's
    # one-row (gemv) product, whose bits differ; the point-only and
    # 513-point cases have a last row that is in view, so its layers are
    # not all zeros. Point steps that keep their caches over the inference
    # blocks give the attention weights of the grad=True forward's one block
    @pytest.mark.parametrize("use_planes, points", [
        (True, None), (False, None), (True, 255), (True, 256), (True, 257), (False, 257),
        (True, 513), (True, "eval"),
    ], ids=["True", "False", "points_255", "points_256", "points_257", "point_only_257",
            "points_513", "eval_scene"])
    def test_inference_forward_keeps_no_cache(self, use_planes, points):
        if points is None or not use_planes:
            cloud = tiny_scene() if points is None else tiny_scene(n=points)
            model = HexPlaneModel(tiny_model_config(use_planes=use_planes))
            hexset = hexplane_project(cloud, tiny_spec_fn(cloud)) if use_planes else None
        else:
            model, cloud, hexset = _blind_at_block_edge(points)
        out = model.forward(cloud, hexset)
        assert out.cache is None
        kept = model.forward(cloud, hexset, grad=True)
        assert kept.cache is not None
        assert out.point_logits.tobytes() == kept.point_logits.tobytes()
        for lean, full in zip(out.aux_logits, kept.aux_logits):
            assert lean.tobytes() == full.tobytes()
        if use_planes:
            stage, _, _ = model.plane_stage(cloud, hexset)
            blocks = [model.point_step(stage, rows, keep=True)[1]["attn"]
                      for rows in row_blocks(cloud.n)]
            joined = np.concatenate([attention_weights(cache) for cache in blocks])
            assert joined.tobytes() == attention_weights(kept.cache["points"]["attn"]).tobytes()
        d_point = np.ones_like(out.point_logits)
        with pytest.raises(ValueError, match="grad=True"):
            model.backward(out, d_point)

    def test_ablation_skips_planes(self):
        cloud = tiny_scene()
        model = HexPlaneModel(tiny_model_config(use_planes=False))
        out = model.forward(cloud, None)
        assert out.point_logits.shape == (cloud.n, 3)
        assert out.aux_logits == []
        assert all(not k.startswith(("enc/", "attn/", "head/aux"))
                   for k in model.parameters())

    def test_zero_aux_weight_removes_aux_gradients_exactly(self):
        cloud = tiny_scene()
        model = HexPlaneModel(tiny_model_config())
        hexset = hexplane_project(cloud, tiny_spec_fn(cloud))
        label_images = rasterize_labels(cloud, hexset)
        aux_labels = [downsample_labels(img, 3) for img in label_images]
        out = model.forward(cloud, hexset, grad=True)
        _, d_point, d_aux = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, 0.4
        )
        grads_with = model.backward(out, d_point, d_aux)
        out2 = model.forward(cloud, hexset, grad=True)
        _, d_point0, d_aux0 = composite_loss(
            out2.point_logits, cloud.labels, out2.aux_logits, aux_labels, 0.0
        )
        grads_without = model.backward(out2, d_point0, d_aux0)
        for m in range(6):
            assert np.all(grads_without[f"head/aux{m}/W"] == 0.0)
            assert np.abs(grads_with[f"head/aux{m}/W"]).max() > 0
        # encoder still receives signal through the attention path
        assert np.abs(grads_without["enc/conv0/W"]).max() > 0
        # and the two paths differ, so the aux term did contribute
        assert not np.array_equal(grads_with["enc/conv0/W"], grads_without["enc/conv0/W"])

    def test_gradient_reaches_every_parameter(self):
        rng = np.random.default_rng(3)
        model, cloud, hexset = micro_model_instance(rng)
        label_images = rasterize_labels(cloud, hexset)
        aux_labels = [downsample_labels(img, 3) for img in label_images]
        out = model.forward(cloud, hexset, grad=True)
        _, d_point, d_aux = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, 0.4
        )
        grads = model.backward(out, d_point, d_aux)
        assert set(grads) == set(model.parameters())
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
            assert np.abs(g).max() > 0, name

    def test_aux_label_grids_match_explicit_downsample(self):
        cloud = tiny_scene()
        hexset = hexplane_project(cloud, tiny_spec_fn(cloud))
        rng = np.random.default_rng(5)
        # shipped planes are multiples of 4; partial edge blocks need others
        label_images = rasterize_labels(cloud, hexset) + [
            rng.integers(-1, 3, size=shape) for shape in ((10, 13), (7, 4), (1, 1))
        ]
        got = aux_label_grids(label_images, 3)
        assert len(got) == len(label_images)
        for img, grid in zip(label_images, got):
            want = downsample_labels(img, 3)
            assert want.shape == ((img.shape[0] + 3) // 4, (img.shape[1] + 3) // 4)
            assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()

    def test_skipped_raster_gradient_leaves_grads_byte_identical(self, monkeypatch):
        # model.backward skips stage 0's col2im; forcing it back on must not
        # move a single bit of any parameter gradient
        rng = np.random.default_rng(4)
        model, cloud, hexset = micro_model_instance(rng)
        aux_labels = aux_label_grids(rasterize_labels(cloud, hexset), 3)
        out = model.forward(cloud, hexset, grad=True)
        _, d_point, d_aux = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, 0.4
        )
        skipped = model.backward(out, d_point, d_aux)
        full_backward = model_module.encode_plane_backward
        calls = []

        def with_input_grad(grad_pyramid, caches, input_grad=True):
            calls.append(input_grad)
            draster, grads = full_backward(grad_pyramid, caches, input_grad=True)
            assert draster is not None
            return draster, grads

        monkeypatch.setattr(model_module, "encode_plane_backward", with_input_grad)
        # the first backward consumed its output's cache; the forward is
        # deterministic, so a second one gives the same cache
        full = model.backward(model.forward(cloud, hexset, grad=True), d_point, d_aux)
        assert calls == [False] * len(hexset.planes)
        assert set(full) == set(skipped)
        for name, g in full.items():
            assert g.tobytes() == skipped[name].tobytes(), name

    @pytest.mark.parametrize("use_planes", [True, False])
    def test_backward_consumes_the_output_cache(self, use_planes):
        cloud = tiny_scene()
        model = HexPlaneModel(tiny_model_config(use_planes=use_planes))
        hexset = hexplane_project(cloud, tiny_spec_fn(cloud)) if use_planes else None
        out = model.forward(cloud, hexset, grad=True)
        d_point = np.ones_like(out.point_logits)
        model.backward(out, d_point)
        assert out.cache is None
        with pytest.raises(ValueError, match="grad=True"):
            model.backward(out, d_point)

    def test_checkpoint_round_trip_into_model(self, tmp_path):
        model = HexPlaneModel(tiny_model_config(seed=5))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model.parameters())
        other = HexPlaneModel(tiny_model_config(seed=6))
        assert not np.array_equal(other.parameters()["head/point/W"],
                                  model.parameters()["head/point/W"])
        other.load_parameters(load_checkpoint(path))
        for a, b in zip(model.parameters().values(), other.parameters().values()):
            assert np.array_equal(a, b)

    def test_checkpoint_names_are_pinned(self):
        # the names are the checkpoint file format: renaming one breaks
        # every saved checkpoint
        def names(config):
            return sorted((k, v.shape) for k, v in HexPlaneModel(config).parameters().items())

        aux = [(f"head/aux{m}/{k}", s) for m in range(6) for k, s in (("W", (6, 3)), ("b", (3,)))]
        point = [("point/b1", (8,)), ("point/b2", (8,)), ("point/w1", (4, 8)),
                 ("point/w2", (16, 8))]
        assert names(tiny_model_config()) == [
            ("attn/w_key", (6, 6)), ("attn/w_out", (6, 6)), ("attn/w_pos", (3, 6)),
            ("attn/w_query", (8, 6)), ("attn/w_value", (6, 6)),
            ("enc/conv0/W", (3, 3, 5, 3)), ("enc/conv0/b", (3,)),
            ("enc/conv1/W", (3, 3, 3, 4)), ("enc/conv1/b", (4,)),
            ("enc/conv2/W", (3, 3, 4, 5)), ("enc/conv2/b", (5,)),
            ("enc/mix/W", (12, 6)), ("enc/mix/b", (6,)),
            *aux, ("head/point/W", (6, 3)), ("head/point/b", (3,)), *point,
        ]
        assert names(tiny_model_config(use_planes=False)) == [
            ("head/point/W", (8, 3)), ("head/point/b", (3,)), *point,
        ]

    def test_checkpoint_shape_mismatch_rejected(self, tmp_path):
        model = HexPlaneModel(tiny_model_config())
        params = {k: v.copy() for k, v in model.parameters().items()}
        params["head/point/W"] = np.zeros((2, 2))
        path = tmp_path / "bad.bin"
        save_checkpoint(path, params)
        with pytest.raises(ValueError, match="head/point/W"):
            model.load_parameters(load_checkpoint(path))


class TestCheckpointContainer:
    def test_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        params = {"b": rng.normal(size=(3, 2)), "a": rng.normal(size=5)}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_checkpoint(p1, params)
        save_checkpoint(p2, dict(reversed(list(params.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        params = {
            "x": rng.normal(size=(4, 3, 2)),
            "y": rng.normal(size=(7,)),
            "scalarish": rng.normal(size=(1,)),
        }
        path = tmp_path / "c.bin"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert set(back) == set(params)
        for k in params:
            assert np.array_equal(back[k], params[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_at_every_offset_is_value_error(self, tmp_path):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=2),
                  "s": np.ones(())}
        path = tmp_path / "c.bin"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(ValueError, match="truncated|bad magic"):
                load_checkpoint(cut)


class TestTrainToy:
    def test_zero_steps_checkpoint_equals_init(self):
        cloud = tiny_scene()
        config = tiny_model_config()
        result = train_toy(cloud, config, tiny_settings(steps=0), tiny_spec_fn)
        fresh = HexPlaneModel(config)
        for k, v in result.model.parameters().items():
            assert np.array_equal(v, fresh.parameters()[k]), k

    def test_bit_deterministic(self):
        cloud = tiny_scene()

        def run():
            return train_toy(
                cloud, tiny_model_config(), tiny_settings(steps=4, augment=True),
                tiny_spec_fn, seed=3,
            )

        a, b = run(), run()
        for k in a.model.parameters():
            assert np.array_equal(a.model.parameters()[k], b.model.parameters()[k]), k
        assert a.log == b.log

    def test_loss_report_identity_each_interval(self):
        cloud = tiny_scene()
        result = train_toy(
            cloud, tiny_model_config(), tiny_settings(steps=6, eval_every=2),
            tiny_spec_fn,
        )
        for record in result.log:
            if record["total"] is None:
                continue
            recon = record["main"] + 0.4 * sum(record["aux"])
            assert abs(record["total"] - recon) < 1e-12

    def test_divergence_guard(self):
        cloud = tiny_scene()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            train_toy(
                cloud, tiny_model_config(use_planes=False),
                tiny_settings(steps=50, lr_max=1e150), tiny_spec_fn,
            )
        assert info.value.step >= 1  # aborts with the offending step index

    def test_unlabeled_cloud_rejected(self):
        cloud = PointCloud(positions=tiny_scene().positions)
        with pytest.raises(ValueError, match="labeled"):
            train_toy(cloud, tiny_model_config(), tiny_settings(), tiny_spec_fn)

    def test_loss_decreases_on_tiny_run(self):
        cloud = tiny_scene()
        result = train_toy(
            cloud, tiny_model_config(), tiny_settings(steps=40, lr_max=5e-3,
                                                      eval_every=20),
            tiny_spec_fn,
        )
        first = result.log[0]["total"]
        last = result.log[-1]["total"]
        assert last < first
