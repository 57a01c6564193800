"""Command-line interface: subcommands, determinism, exit codes."""

import json

import numpy as np
import pytest
import yaml

from hexplane.cli import main
from hexplane.cloud import PointCloud, save_pointcloud
from hexplane.images import load_projection_index

TINY_CONFIG = {
    "scene": {
        "kind": "synth",
        "seed": 1,
        "num_points": 250,
        "num_classes": 3,
        "room_extent": [6.0, 6.0, 2.5],
        "primitives": [
            {"kind": "box", "center": [1.5, 1.0, 0.5], "size": [1.0, 1.0, 1.0],
             "class_id": 2},
        ],
    },
    "planes": {
        "xy_top": {"height": 24, "width": 24},
        "xz_front": {"height": 16, "width": 48},
        "xz_back": {"height": 16, "width": 48},
        "yz_left": {"height": 16, "width": 48},
        "yz_right": {"height": 16, "width": 48},
        "cylindrical": {"height": 16, "width": 48, "fov_up_deg": 60.0,
                        "fov_down_deg": 35.0},
    },
    "model": {
        "point_width": 8,
        "encoder_widths": [3, 4, 5],
        "feature_channels": 6,
        "heads": 2,
        "head_dim": 3,
        "fused_channels": 6,
    },
    "training": {"steps": 3, "eval_every": 0, "lr_max": 1e-3},
    "threads": 1,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(TINY_CONFIG))
    return path


def read_pgm(path):
    raw = path.read_bytes()
    fields = raw.split(maxsplit=4)
    assert fields[0] == b"P5"
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    dtype = ">u2" if maxval > 255 else "u1"
    return np.frombuffer(fields[4], dtype=dtype).reshape(h, w).astype(np.int64)


class TestSynthAndProject:
    def test_three_point_cloud_top_view(self, tmp_path, tiny_config):
        cloud = PointCloud(
            positions=np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 0.5], [-1.0, 0.8, 0.7]]),
            labels=np.array([0, 1, 2]),
        )
        cloud_path = tmp_path / "three.bin"
        save_pointcloud(cloud_path, cloud)
        out_dir = tmp_path / "imgs"
        code = main(["project", str(cloud_path), "--config", str(tiny_config),
                     "--out-dir", str(out_dir), "--stem", "t"])
        assert code == 0
        sidecar = load_projection_index(out_dir / "t.index.bin")
        top = sidecar[0]
        assert (top["winner"] >= 0).sum() == 3  # one pixel per point
        label_img = read_pgm(out_dir / "t.xy_top.label.pgm")
        assert (label_img > 0).sum() == 3
        ppm = (out_dir / "t.xy_top.class.ppm").read_bytes()
        assert ppm.startswith(b"P6\n24 24\n255\n")

    def test_project_byte_identical_runs(self, tmp_path, tiny_config):
        code = main(["synth", "--config", str(tiny_config), "--out",
                     str(tmp_path / "scene.bin")])
        assert code == 0
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = main(["project", str(tmp_path / "scene.bin"), "--config",
                         str(tiny_config), "--out-dir", str(out_dir), "--stem", "p"])
            assert code == 0
            outputs.append({
                f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
            })
        assert outputs[0] == outputs[1]

    def test_depth_pgm_matches_quantization_oracle(self, tmp_path, tiny_config):
        main(["synth", "--config", str(tiny_config), "--out", str(tmp_path / "s.bin")])
        out_dir = tmp_path / "q"
        main(["project", str(tmp_path / "s.bin"), "--config", str(tiny_config),
              "--out-dir", str(out_dir), "--stem", "s"])
        sidecar = load_projection_index(out_dir / "s.index.bin")
        for i, kind in enumerate(["xy_top", "xz_front", "xz_back", "yz_left",
                                  "yz_right", "cylindrical"]):
            img = read_pgm(out_dir / f"s.{kind}.depth.pgm")
            zbuf = sidecar[i]["zbuffer"]
            finite = np.isfinite(zbuf)
            want = np.zeros(zbuf.shape, dtype=np.int64)
            vals = zbuf[finite]
            lo, hi = vals.min(), vals.max()
            span = hi - lo if hi > lo else 1.0
            want[finite] = 65535 - np.floor(
                (vals - lo) / span * 65534
            ).astype(np.int64)
            assert np.array_equal(img, want), kind

    def test_synth_ascii_round_trip(self, tmp_path, tiny_config):
        out = tmp_path / "scene.txt"
        code = main(["synth", "--config", str(tiny_config), "--format", "ascii",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("hexpc ascii 250")


class TestTrainEval:
    def test_zero_step_checkpoint_equals_init(self, tmp_path, tiny_config):
        from hexplane.checkpoint import load_checkpoint
        from hexplane.model import HexPlaneModel
        from hexplane import config as cfg

        out_dir = tmp_path / "run0"
        code = main(["train", "--config", str(tiny_config), "--steps", "0",
                     "--output-dir", str(out_dir)])
        assert code == 0
        saved = load_checkpoint(out_dir / "checkpoint.bin")
        tree = cfg.load_config(tiny_config)
        fresh = HexPlaneModel(cfg.build_model_config(tree, 3))
        for k, v in fresh.parameters().items():
            assert np.array_equal(saved[k], v), k

    def test_train_twice_bit_identical(self, tmp_path, tiny_config):
        blobs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            code = main(["train", "--config", str(tiny_config),
                         "--output-dir", str(out_dir)])
            assert code == 0
            blobs.append(
                (
                    (out_dir / "checkpoint.bin").read_bytes(),
                    (out_dir / "log.jsonl").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_eval_ground_truth_as_predictions(self, tmp_path, tiny_config, capsys):
        scene = tmp_path / "scene.bin"
        main(["synth", "--config", str(tiny_config), "--out", str(scene)])
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", str(scene), "--gt", str(scene),
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["miou"] == 1.0 and report["oa"] == 1.0

    def test_eval_report_validates_schema(self, tmp_path, tiny_config):
        import jsonschema

        from hexplane.metrics import REPORT_SCHEMA

        out_dir = tmp_path / "run"
        main(["train", "--config", str(tiny_config), "--output-dir", str(out_dir)])
        report_path = tmp_path / "report.json"
        code = main(["eval", "--config", str(tiny_config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(report_path)])
        assert code == 0
        jsonschema.validate(json.loads(report_path.read_text()), REPORT_SCHEMA)

    def test_eval_random_predictions_near_chance(self, tmp_path, tiny_config):
        import math

        rng = np.random.default_rng(0)
        k, n = 3, 6000
        positions = rng.uniform(-2, 2, size=(n, 3))
        gt = PointCloud(positions=positions, labels=rng.integers(0, k, size=n))
        pred = PointCloud(positions=positions, labels=rng.integers(0, k, size=n))
        gt_path, pred_path = tmp_path / "gt.bin", tmp_path / "pred.bin"
        save_pointcloud(gt_path, gt)
        save_pointcloud(pred_path, pred)
        report_path = tmp_path / "rand.json"
        code = main(["eval", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(report_path)])
        assert code == 0
        oa = json.loads(report_path.read_text())["oa"]
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert abs(oa - 1 / k) < 5 * sigma

    def test_eval_on_range_image_flag(self, tmp_path, tiny_config):
        out_dir = tmp_path / "run"
        main(["train", "--config", str(tiny_config), "--output-dir", str(out_dir)])
        code = main(["eval", "--config", str(tiny_config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--on-range-image"])
        assert code == 0

    def test_divergent_training_exits_2(self, tmp_path, tiny_config):
        import yaml as _yaml

        tree = dict(TINY_CONFIG)
        tree["training"] = dict(TINY_CONFIG["training"], lr_max=1e150, steps=40)
        tree["model"] = dict(TINY_CONFIG["model"], use_planes=False)
        bad = tmp_path / "bad.yaml"
        bad.write_text(_yaml.safe_dump(tree))
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(bad),
                         "--output-dir", str(tmp_path / "boom")])
        assert code == 2

    def test_non_finite_gradient_exits_2(self, tmp_path, tiny_config, monkeypatch):
        from hexplane.model import HexPlaneModel

        backward = HexPlaneModel.backward

        def poisoned(self, *args, **kwargs):
            grads = backward(self, *args, **kwargs)
            name = sorted(grads)[0]
            grads[name] = np.full_like(grads[name], np.nan)
            return grads

        monkeypatch.setattr(HexPlaneModel, "backward", poisoned)
        code = main(["train", "--config", str(tiny_config),
                     "--output-dir", str(tmp_path / "nan")])
        assert code == 2


class TestValidation:
    def test_unknown_config_key_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("training:\n  step_count: 5\n")
        code = main(["train", "--config", str(path)])
        assert code == 1
        assert "step_count" in capsys.readouterr().err

    def test_missing_cloud_file(self, tmp_path, tiny_config):
        code = main(["project", str(tmp_path / "nope.bin"),
                     "--config", str(tiny_config)])
        assert code == 1

    def test_malformed_cloud_file(self, tmp_path, tiny_config):
        bad = tmp_path / "bad.txt"
        bad.write_text("hexpc ascii 2 3 0\n0 0 0\n")
        code = main(["project", str(bad), "--config", str(tiny_config)])
        assert code == 1

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "project", "train", "eval", "gradcheck"):
            assert cmd in out


class TestGradcheckCommand:
    def test_passes_for_attention(self, capsys):
        code = main(["gradcheck", "attention", "--seed", "2"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_component_is_validation_error(self):
        assert main(["gradcheck", "nonsense"]) == 1

    def test_impossible_tolerance_is_numerical_failure(self, capsys):
        code = main(["gradcheck", "linear", "--tol", "1e-18"])
        assert code == 2
        assert "FAILED" in capsys.readouterr().out
