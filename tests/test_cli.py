"""Command-line interface: subcommands, determinism, exit codes."""

import copy
import json
from pathlib import Path

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


def range_image_oracle(config_path, checkpoint_path):
    """The --on-range-image report computed the long way: label images of the
    ground-truth cloud and of a cloud carrying the predictions, compared
    pixel by pixel on the cylindrical plane."""
    from hexplane import config as cfg
    from hexplane.checkpoint import load_checkpoint
    from hexplane.cloud import UNLABELED
    from hexplane.metrics import ConfusionMatrix, report_json, segmentation_scores
    from hexplane.model import HexPlaneModel
    from hexplane.projection import PLANE_KINDS, hexplane_project, rasterize_labels

    tree = cfg.load_config(config_path)
    cloud = cfg.build_scene(tree["scene"])
    model = HexPlaneModel(cfg.build_model_config(tree, cfg.scene_num_classes(tree)))
    model.load_parameters(load_checkpoint(checkpoint_path))
    hexset = hexplane_project(cloud, cfg.plane_spec_builder(tree["planes"])(cloud),
                              channels=model.config.raster_channels)
    preds = model.forward(cloud, hexset).point_logits.argmax(axis=1)
    pred_cloud = PointCloud(positions=cloud.positions, labels=preds)
    cyl = PLANE_KINDS.index("cylindrical")
    gt_img = rasterize_labels(cloud, hexset)[cyl].reshape(-1)
    pred_img = rasterize_labels(pred_cloud, hexset)[cyl].reshape(-1)
    keep = gt_img != UNLABELED
    cm = ConfusionMatrix(model.config.num_classes).update(pred_img[keep], gt_img[keep])
    return report_json(segmentation_scores(cm))


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
        report_path = tmp_path / "report.json"
        code = main(["eval", "--config", str(tiny_config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--on-range-image",
                     "--out", str(report_path)])
        assert code == 0
        assert json.loads(report_path.read_text()) == range_image_oracle(
            tiny_config, out_dir / "checkpoint.bin")

    def test_point_only_range_image_matches_oracle(self, tmp_path):
        tree = copy.deepcopy(TINY_CONFIG)
        tree["model"]["use_planes"] = False
        config = tmp_path / "points.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--on-range-image",
                     "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text()) == range_image_oracle(
            config, out_dir / "checkpoint.bin")

    @pytest.mark.parametrize("use_planes", [True, False], ids=["planes", "points"])
    def test_eval_oa_equals_final_logged_oa(self, tmp_path, use_planes):
        # train and eval must treat the same model and cloud the same way
        tree = copy.deepcopy(TINY_CONFIG)
        tree["model"]["use_planes"] = use_planes
        config = tmp_path / "tiny.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(report_path)]) == 0
        final = json.loads((out_dir / "log.jsonl").read_text().splitlines()[-1])
        assert json.loads(report_path.read_text())["oa"] == final["oa"]

    def test_point_only_eval_skips_projection(self, tmp_path):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-2.0, 2.0, size=(120, 3))
        positions[7] = 0.0  # no cylindrical projection for this point
        cloud_path = tmp_path / "origin.bin"
        save_pointcloud(cloud_path, PointCloud(
            positions=positions, labels=rng.integers(0, 3, size=120)))
        tree = dict(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(cloud_path)}
        tree["model"] = dict(TINY_CONFIG["model"], use_planes=False)
        config = tmp_path / "points.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--output-dir", str(out_dir)]) == 0
        eval_args = ["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--cloud", str(cloud_path)]
        assert main(eval_args) == 0
        # the range-image score still needs the projection
        assert main(eval_args + ["--on-range-image"]) == 1

    def test_points_out_of_fov_on_every_plane_train_and_eval(self, tmp_path):
        # no orthographic plane covers the room and the cylinder sees a 1 degree
        # band, so most points get a zero context instead of aborting the run
        tree = copy.deepcopy(TINY_CONFIG)
        for kind in ("xy_top", "xz_front", "xz_back", "yz_left", "yz_right"):
            tree["planes"][kind]["extent"] = [100.0, 101.0, 100.0, 101.0]
        tree["planes"]["cylindrical"].update(fov_up_deg=0.5, fov_down_deg=0.5)
        config = tmp_path / "blind.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config),
                     "--output-dir", str(out_dir)]) == 0
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin")]) == 0

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

    def test_malformed_yaml_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: [1, 2\n")
        code = main(["train", "--config", str(path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: config:")
        assert str(path) in lines[0] and "line 2, column 1" in lines[0]

    @pytest.mark.parametrize("scene, named", [
        ({"kind": "file"}, "scene.path"),
        ({"kind": "builtin", "name": "nope"}, "'nope'"),
    ], ids=["file_without_path", "unknown_builtin"])
    def test_eval_on_cloud_with_bad_train_scene(self, tmp_path, tiny_config, capsys,
                                                scene, named):
        # the class count comes from the train scene even when --cloud is given
        cloud = tmp_path / "cloud.bin"
        assert main(["synth", "--config", str(tiny_config), "--out", str(cloud)]) == 0
        assert main(["train", "--config", str(tiny_config), "--steps", "0",
                     "--output-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "eval.yaml"
        path.write_text(yaml.safe_dump({**TINY_CONFIG, "scene": scene}))
        capsys.readouterr()
        code = main(["eval", "--config", str(path), "--cloud", str(cloud),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: config:")
        assert named in lines[0]

    @pytest.mark.parametrize("argv, key", [
        (["train", "--steps", "-1"], "training.steps"),
        (["synth", "--points", "0"], "scene.num_points"),
        (["synth", "--classes", "1"], "scene.num_classes"),
    ], ids=["steps", "points", "classes"])
    def test_flag_is_validated_like_a_file_value(self, tmp_path, capsys, argv, key):
        out = (["--output-dir", str(tmp_path / "run")] if argv[0] == "train"
               else ["--out", str(tmp_path / "cloud.bin")])
        code = main(argv + out)
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: config:")
        assert key in lines[0]
        assert "Traceback" not in err

    def test_non_finite_checkpoint_exits_1_naming_the_tensor(self, tmp_path, tiny_config,
                                                             capsys):
        from hexplane import config as cfg
        from hexplane.checkpoint import save_checkpoint
        from hexplane.model import HexPlaneModel

        tree = cfg.load_config(tiny_config)
        params = HexPlaneModel(cfg.build_model_config(tree, 3)).parameters()
        params["head/point/W"][1, 2] = np.nan
        path = tmp_path / "nan.bin"
        save_checkpoint(path, params)
        code = main(["eval", "--config", str(tiny_config), "--checkpoint", str(path)])
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "head/point/W" in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_train_scene_is_built_once(self, tmp_path, monkeypatch, command):
        # a builtin or file train scene is read once, not again to count classes
        from hexplane import config as cfg

        config = str(Path(__file__).resolve().parents[1] / "configs" / "two_class.yaml")
        run = tmp_path / "run"
        argv = ["train", "--config", config, "--steps", "0", "--output-dir", str(run)]
        if command == "eval":
            assert main(argv) == 0
            argv = ["eval", "--config", config, "--checkpoint", str(run / "checkpoint.bin")]
        built = []
        build_scene = cfg.build_scene

        def counting(scene_tree):
            built.append(scene_tree["kind"])
            return build_scene(scene_tree)

        monkeypatch.setattr(cfg, "build_scene", counting)
        assert main(argv) == 0
        assert built == ["builtin"]

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
