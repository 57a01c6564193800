"""Model assembly, training loop, checkpoints, and gradient flow."""

import numpy as np
import pytest

from hexplane.checkpoint import load_checkpoint, save_checkpoint
from hexplane.cloud import PointCloud, SceneSpec, synth_scene
from hexplane.heads import composite_loss, downsample_labels
from hexplane.model import HexPlaneModel, ModelConfig, micro_model_instance
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

TINY_SENSOR = SensorConfig(phi_up=1.0, phi_down=0.6, height=16, width=48)
TINY_RES = {
    "xy_top": (24, 24),
    "xz_front": (16, 48),
    "xz_back": (16, 48),
    "yz_left": (16, 48),
    "yz_right": (16, 48),
}


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


class TestModel:
    def test_forward_shapes(self):
        cloud = tiny_scene()
        model = HexPlaneModel(tiny_model_config())
        hexset = hexplane_project(cloud, tiny_spec_fn(cloud))
        out = model.forward(cloud, hexset)
        assert out.point_logits.shape == (cloud.n, 3)
        assert len(out.aux_logits) == 6

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
        aux_labels = [
            downsample_labels(img, (img.shape[0] + 3) // 4, (img.shape[1] + 3) // 4, 3)
            for img in label_images
        ]
        out = model.forward(cloud, hexset)
        _, d_point, d_aux = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, 0.4
        )
        grads_with = model.backward(out, d_point, d_aux)
        out2 = model.forward(cloud, hexset)
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
        aux_labels = [
            downsample_labels(img, (img.shape[0] + 3) // 4, (img.shape[1] + 3) // 4, 3)
            for img in label_images
        ]
        out = model.forward(cloud, hexset)
        _, d_point, d_aux = composite_loss(
            out.point_logits, cloud.labels, out.aux_logits, aux_labels, 0.4
        )
        grads = model.backward(out, d_point, d_aux)
        assert set(grads) == set(model.parameters())
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
            assert np.abs(g).max() > 0, name

    def test_checkpoint_round_trip_into_model(self, tmp_path):
        model = HexPlaneModel(tiny_model_config(seed=5))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model.parameters())
        other = HexPlaneModel(tiny_model_config(seed=6))
        assert not np.array_equal(other.head_w, model.head_w)
        other.load_parameters(load_checkpoint(path))
        for a, b in zip(model.parameters().values(), other.parameters().values()):
            assert np.array_equal(a, b)

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
