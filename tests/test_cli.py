"""Command-line interface: subcommands, determinism, exit codes."""

import copy
import hashlib
import json

import numpy as np
import pytest
import yaml

from hexplane.cli import main
from hexplane.cloud import PointCloud, save_pointcloud
from hexplane.images import class_palette, load_projection_index

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


def save_feature_cloud(path, seed=4, n=120):
    """A cloud labeled 0-2 whose points carry three feature columns: six
    input channels, where a cloud without features has four."""
    rng = np.random.default_rng(seed)
    save_pointcloud(path, PointCloud(positions=rng.uniform(-2.0, 2.0, size=(n, 3)),
                                     features=rng.uniform(0.0, 1.0, size=(n, 3)),
                                     labels=np.arange(n) % 3))


def save_five_class_cloud(path):
    """A cloud labeled 0-4: two classes past TINY_CONFIG's three."""
    rng = np.random.default_rng(5)
    save_pointcloud(path, PointCloud(positions=rng.uniform(-2.0, 2.0, size=(120, 3)),
                                     labels=np.arange(120) % 5))


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

    def test_class_id_past_16_bit_label_pgm_exits_1(self, tmp_path, tiny_config, capsys):
        # labels + 1 are the label PGM's pixels; a PGM stores at most 65535
        cloud = PointCloud(positions=np.array([[0.5, 0.5, 0.5], [1.5, 1.5, 0.5]]),
                           labels=np.array([0, 70000]))
        cloud_path = tmp_path / "wide.bin"
        save_pointcloud(cloud_path, cloud)
        code = main(["project", str(cloud_path), "--config", str(tiny_config),
                     "--out-dir", str(tmp_path / "imgs"), "--stem", "w"])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "maxval" in lines[0] and "70001" in lines[0]
        # refused before the first plane's depth PGM: nothing is written
        assert list((tmp_path / "imgs").glob("*")) == []

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

    def test_class_palette_bytes_are_pinned(self):
        # every class PPM is coloured from this table: 301 rows, black first
        digest = hashlib.sha256(class_palette(300).tobytes()).hexdigest()
        assert digest == "fc41998963057a82c3ebfb8569dd5eb2eb841c0537c92db0e06566b67628a7dd"

    def test_class_palette_is_built_once_per_export(self, tmp_path, tiny_config, monkeypatch):
        # one table colours every plane's class PPM
        from hexplane import images
        calls = []
        monkeypatch.setattr(images, "class_palette",
                            lambda n: calls.append(n) or class_palette(n))
        main(["synth", "--config", str(tiny_config), "--out", str(tmp_path / "s.bin")])
        code = main(["project", str(tmp_path / "s.bin"), "--config", str(tiny_config),
                     "--out-dir", str(tmp_path / "imgs"), "--stem", "s"])
        assert code == 0
        assert len(list((tmp_path / "imgs").glob("s.*.class.ppm"))) == 6
        assert calls == [3]

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

    def test_eval_pred_gt_on_range_image_exits_1(self, tmp_path, tiny_config, capsys):
        # a prediction cloud has no range image to score on
        scene = tmp_path / "scene.bin"
        main(["synth", "--config", str(tiny_config), "--out", str(scene)])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", str(scene), "--gt", str(scene),
                     "--on-range-image", "--out", str(report_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: --on-range-image needs --checkpoint\n"
        assert not report_path.exists()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--cloud"])
    def test_eval_pred_gt_refuses_model_flags(self, tmp_path, tiny_config, capsys, flag):
        # the clouds are scored as given; a model flag used to be ignored
        scene = tmp_path / "scene.bin"
        main(["synth", "--config", str(tiny_config), "--out", str(scene)])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main(["eval", "--pred", str(scene), "--gt", str(scene),
                     flag, str(tmp_path / "missing.bin"), "--out", str(report_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} cannot be used with --pred/--gt\n"
        assert not report_path.exists()

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

    @pytest.mark.parametrize("use_planes,unseen_classes", [
        (True, False), (False, False), (True, True)],
        ids=["planes", "points", "eval_scene_with_unseen_classes"])
    def test_eval_oa_equals_final_logged_oa(self, tmp_path, use_planes, unseen_classes):
        # train and eval must treat the same model and cloud the same way; an
        # eval scene labeled past the model's classes used to fail train at
        # its eval record, and eval as it loaded the checkpoint
        tree = copy.deepcopy(TINY_CONFIG)
        tree["model"]["use_planes"] = use_planes
        if unseen_classes:
            save_five_class_cloud(tmp_path / "five.bin")
            tree["eval_scene"] = {"kind": "file", "path": str(tmp_path / "five.bin")}
        config = tmp_path / "tiny.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(report_path)]) == 0
        final = json.loads((out_dir / "log.jsonl").read_text().splitlines()[-1])
        assert json.loads(report_path.read_text())["oa"] == final["oa"]

    def test_eval_counts_a_class_the_model_never_saw_as_a_miss(self, tmp_path, tiny_config):
        # eval used to widen the model to the cloud's labels, so a 3-class
        # checkpoint no longer fit it
        save_five_class_cloud(tmp_path / "five.bin")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config), "--output-dir", str(out_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", str(tiny_config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--cloud", str(tmp_path / "five.bin"),
                     "--out", str(report_path)]) == 0
        iou = json.loads(report_path.read_text())["per_class_iou"]
        assert len(iou) == 5 and iou[3] == iou[4] == 0.0

    def test_eval_cloud_labeled_past_any_matrix_exits_1(self, tmp_path, tiny_config, capsys):
        # its labels alone set the matrix's width, and a cloud's labels reach
        # 2**31 - 1; one past the bound keeps a matrix without it small
        cloud_path = tmp_path / "wide.bin"
        save_pointcloud(cloud_path, PointCloud(positions=np.array([[0.5, 0.5, 0.5],
                                                                   [1.5, 1.5, 0.5]]),
                                               labels=np.array([0, 4096])))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config), "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(tiny_config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--cloud", str(cloud_path)]) == 1
        assert capsys.readouterr().err == ("error: a confusion matrix holds at most 4096 "
                                           "classes, not 4097\n")

    def test_feature_file_scene_trains_and_evals_without_a_width_key(self, tmp_path):
        # the input width is read from the cloud: a file scene with feature
        # columns used to need model.point_channels restated, or exit 1
        from hexplane.checkpoint import load_checkpoint

        save_feature_cloud(tmp_path / "feats.bin")
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(tmp_path / "feats.bin")}
        config = tmp_path / "feats.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        assert load_checkpoint(out_dir / "checkpoint.bin")["point/w1"].shape[0] == 6
        report_path = tmp_path / "report.json"
        assert main(["eval", "--config", str(config), "--checkpoint",
                     str(out_dir / "checkpoint.bin"), "--out", str(report_path)]) == 0
        final = json.loads((out_dir / "log.jsonl").read_text().splitlines()[-1])
        assert json.loads(report_path.read_text())["oa"] == final["oa"]

    def test_eval_cloud_needs_no_train_scene_file(self, tmp_path, capsys):
        # eval --cloud used to load the train scene to count its classes, and
        # exited 1 once that file was gone
        train_path, cloud_path = tmp_path / "train.bin", tmp_path / "cloud.bin"
        save_feature_cloud(train_path)
        save_feature_cloud(cloud_path, seed=9, n=90)
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(train_path)}
        config = tmp_path / "run.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        reports = []
        for name in ("with_file", "without_file"):
            report_path = tmp_path / f"{name}.json"
            assert main(["eval", "--config", str(config), "--checkpoint",
                         str(out_dir / "checkpoint.bin"), "--cloud", str(cloud_path),
                         "--out", str(report_path)]) == 0
            reports.append(report_path.read_bytes())
            train_path.unlink(missing_ok=True)
        assert reports[0] == reports[1]
        assert capsys.readouterr().err == ""

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
        # no decay: lr_max * weight_decay >= 1 is a config error (exit 1)
        tree["training"] = dict(TINY_CONFIG["training"], lr_max=1e150, weight_decay=0.0,
                                steps=40)
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

    @pytest.mark.parametrize("keys", [("training", "aux_weight")])
    def test_gradient_whose_square_overflows_exits_2(self, tmp_path, capsys, keys):
        # finite gradients near 1e300: their second moment overflows in AdamW
        tree = copy.deepcopy(TINY_CONFIG)
        node = tree
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = 1.0e300
        config = tmp_path / "big.yaml"
        config.write_text(yaml.safe_dump(tree))
        code = main(["train", "--config", str(config),
                     "--output-dir", str(tmp_path / "big")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "gradient for parameter" in lines[0]


def list_root_config(tmp_path):
    return "- seed: 1\n- seed: 2\n"


def unlabeled_file_scene_config(tmp_path):
    save_pointcloud(tmp_path / "bare.bin", PointCloud(
        positions=np.random.default_rng(2).uniform(-2.0, 2.0, size=(50, 3))))
    tree = copy.deepcopy(TINY_CONFIG)
    tree["scene"] = {"kind": "file", "path": str(tmp_path / "bare.bin")}
    return yaml.safe_dump(tree)


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
        ({"kind": "nope"}, "scene.kind"),
    ], ids=["file_without_path", "unknown_kind"])
    def test_eval_on_cloud_with_bad_train_scene(self, tmp_path, tiny_config, capsys,
                                                scene, named):
        # the class count is read from the checkpoint, so eval --cloud builds no
        # train scene; it used to exit 1 naming the train scene's `named` key
        cloud = tmp_path / "cloud.bin"
        assert main(["synth", "--config", str(tiny_config), "--out", str(cloud)]) == 0
        assert main(["train", "--config", str(tiny_config), "--steps", "0",
                     "--output-dir", str(tmp_path / "run")]) == 0
        path = tmp_path / "eval.yaml"
        path.write_text(yaml.safe_dump({**TINY_CONFIG, "scene": scene}))
        reports = []
        for config in (tiny_config, path):
            out = tmp_path / f"{config.stem}.json"
            assert main(["eval", "--config", str(config), "--cloud", str(cloud), "--out",
                         str(out), "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("model,key", [
        ({"point_width": 9}, "model.point_width is 9, but the checkpoint was trained at 8"),
        ({"feature_channels": 7}, "model.feature_channels is 7"),
        ({"heads": 3}, "model.heads * model.head_dim is 9, but the checkpoint was trained at 6"),
        ({"head_dim": 2}, "model.heads * model.head_dim is 4"),
        ({"fused_channels": 5}, "model.fused_channels is 5"),
        # the first key in config order is named
        ({"fused_channels": 5, "point_width": 9}, "model.point_width"),
        # these named a tensor, or listed every tensor one model lacks
        ({"encoder_widths": [3, 4, 7]},
         "model.encoder_widths is [3, 4, 7], but the checkpoint was trained at [3, 4, 5]"),
        ({"encoder_widths": [3, 4]}, "model.encoder_widths is [3, 4], but"),
        ({"use_planes": False}, "model.use_planes is false, but the checkpoint was trained "
                                "at true"),
    ])
    def test_checkpoint_width_unlike_the_config_names_the_key(self, tmp_path, tiny_config,
                                                              capsys, model, key):
        # these used to name the checkpoint tensor the width sized, not the key
        from hexplane import config as cfg
        from hexplane.checkpoint import save_checkpoint
        from hexplane.model import HexPlaneModel

        tree = cfg.load_config(tiny_config)
        path = tmp_path / "trained.bin"
        save_checkpoint(path, HexPlaneModel(cfg.build_model_config(tree, 3)).parameters())
        user = copy.deepcopy(TINY_CONFIG)
        user["model"].update(model)
        other = tmp_path / "other.yaml"
        other.write_text(yaml.safe_dump(user))
        code = main(["eval", "--config", str(other), "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config:") and key in err and err.count("\n") == 1

    def test_checkpoint_trained_at_another_input_width_names_both_widths(
            self, tmp_path, tiny_config, capsys):
        # the width row replaces the class-count row, which named a key eval no
        # longer reads; the shape mismatch used to name a tensor
        save_feature_cloud(tmp_path / "feats.bin")
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(tmp_path / "feats.bin")}
        config = tmp_path / "feats.yaml"
        config.write_text(yaml.safe_dump(tree))
        assert main(["train", "--config", str(config), "--steps", "0",
                     "--output-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(tiny_config),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: config: the cloud's input width is 4, but the checkpoint was "
                       "trained at 6\n")

    @pytest.mark.parametrize("head", [None, np.zeros(3)], ids=["missing", "one_axis"])
    def test_checkpoint_without_a_point_head_exits_1_before_building_a_model(
            self, tmp_path, tiny_config, capsys, monkeypatch, head):
        # the point head's width is the class count eval builds its model at
        from hexplane import cli
        from hexplane import config as cfg
        from hexplane.checkpoint import save_checkpoint
        from hexplane.model import HexPlaneModel

        params = HexPlaneModel(cfg.build_model_config(cfg.load_config(tiny_config), 3)).parameters()
        del params["head/point/W"]
        if head is not None:
            params["head/point/W"] = head
        path = tmp_path / "headless.bin"
        save_checkpoint(path, params)
        monkeypatch.setattr(cli, "HexPlaneModel", lambda config: pytest.fail("a model was built"))
        code = main(["eval", "--config", str(tiny_config), "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {path}: no 2-axis head/point/W to count classes by\n"

    def test_eval_scene_of_another_width_exits_1_naming_it(self, tmp_path, capsys):
        # it used to name model.point_channels, a key the scenes now set
        save_feature_cloud(tmp_path / "feats.bin")
        tree = copy.deepcopy(TINY_CONFIG)
        tree["eval_scene"] = {"kind": "file", "path": str(tmp_path / "feats.bin")}
        config = tmp_path / "mixed.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config), "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: config: eval_scene provides 6 input channels, but scene provides 4\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("label", [5000, 2**31 - 1])
    def test_file_scene_labeled_past_any_matrix_exits_1_before_training(
            self, tmp_path, capsys, label):
        # its largest label sets the class count: 2**31 - 1 died allocating the
        # heads, and 5000 trained to its first eval record, then exited 1 with
        # no checkpoint written
        cloud_path = tmp_path / "wide.bin"
        save_pointcloud(cloud_path, PointCloud(
            positions=np.random.default_rng(6).uniform(-2.0, 2.0, size=(40, 3)),
            labels=np.where(np.arange(40) == 7, label, np.arange(40) % 3)))
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(cloud_path)}
        config = tmp_path / "wide.yaml"
        config.write_text(yaml.safe_dump(tree))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config), "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config: scene.path: ") and err.count("\n") == 1
        assert f"{label + 1} classes, past the 4096" in err and "Traceback" not in err
        assert not (out_dir / "checkpoint.bin").exists()

    def test_unlabeled_eval_scene_is_refused_before_training(self, tmp_path, monkeypatch,
                                                             capsys):
        # it used to train every step, then fail as a length mismatch
        from hexplane import training

        cloud_path = tmp_path / "bare.bin"
        save_pointcloud(cloud_path, PointCloud(
            positions=np.random.default_rng(2).uniform(-2.0, 2.0, size=(50, 3))))
        tree = copy.deepcopy(TINY_CONFIG)
        tree["eval_scene"] = {"kind": "file", "path": str(cloud_path)}
        config = tmp_path / "bare.yaml"
        config.write_text(yaml.safe_dump(tree))
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: pytest.fail("a training step ran"))
        code = main(["train", "--config", str(config), "--output-dir", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == "error: evaluation cloud must be labeled\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_train_scene_is_built_once(self, tmp_path, monkeypatch, command):
        # a file train scene is read once, not again to count classes
        from hexplane import config as cfg

        save_five_class_cloud(tmp_path / "five.bin")
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(tmp_path / "five.bin")}
        config = tmp_path / "five.yaml"
        config.write_text(yaml.safe_dump(tree))
        run = tmp_path / "run"
        argv = ["train", "--config", str(config), "--steps", "0", "--output-dir", str(run)]
        if command == "eval":
            assert main(argv) == 0
            argv = ["eval", "--config", str(config), "--checkpoint", str(run / "checkpoint.bin")]
        built = []
        build_scene = cfg.build_scene

        def counting(scene_tree, section="scene"):
            built.append(section)
            return build_scene(scene_tree, section)

        monkeypatch.setattr(cfg, "build_scene", counting)
        assert main(argv) == 0
        assert built == ["scene"]

    def test_eval_cloud_flag_is_the_file_kind_of_eval_scene(self, tmp_path, tiny_config):
        # --cloud X is laid over the config as eval_scene {kind: file, path: X}
        cloud = tmp_path / "five.bin"
        save_five_class_cloud(cloud)
        assert main(["train", "--config", str(tiny_config), "--steps", "0",
                     "--output-dir", str(tmp_path / "run")]) == 0
        tree = copy.deepcopy(TINY_CONFIG)
        tree["eval_scene"] = {"kind": "file", "path": str(cloud)}
        path = tmp_path / "eval.yaml"
        path.write_text(yaml.safe_dump(tree))
        checkpoint = str(tmp_path / "run" / "checkpoint.bin")
        reports = []
        for extra in (["--config", str(tiny_config), "--cloud", str(cloud)],
                      ["--config", str(path)]):
            out = tmp_path / f"report{len(reports)}.json"
            assert main(["eval", "--checkpoint", checkpoint, "--out", str(out)] + extra) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_scene_labeled_past_any_matrix_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys):
        # it used to train every step, then exit 1 on the confusion matrix's
        # bound with no checkpoint written
        from hexplane import training

        cloud_path = tmp_path / "wide.bin"
        save_pointcloud(cloud_path, PointCloud(
            positions=np.random.default_rng(2).uniform(-2.0, 2.0, size=(50, 3)),
            labels=np.where(np.arange(50) == 7, 5000, np.arange(50) % 3)))
        tree = copy.deepcopy(TINY_CONFIG)
        tree["eval_scene"] = {"kind": "file", "path": str(cloud_path)}
        config = tmp_path / "wide.yaml"
        config.write_text(yaml.safe_dump(tree))
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: pytest.fail("a training step ran"))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config), "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: config: eval_scene.path: label 5000 asks for 5001 classes, "
                       "past the 4096 a confusion matrix holds\n")
        assert not (out_dir / "checkpoint.bin").exists()

    @pytest.mark.parametrize("label, classes", [(-1, 0), (0, 1)], ids=["unlabeled", "one"])
    def test_file_scene_of_fewer_than_two_classes_exits_1_before_training(
            self, tmp_path, monkeypatch, capsys, label, classes):
        # all -1 built a 0-class model that failed as numpy's empty argmax; all 0
        # trained a 1-class model to an OA of 1
        from hexplane import training

        cloud_path = tmp_path / "flat.bin"
        save_pointcloud(cloud_path, PointCloud(
            positions=np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3)),
            labels=np.full(50, label)))
        tree = copy.deepcopy(TINY_CONFIG)
        tree["scene"] = {"kind": "file", "path": str(cloud_path)}
        config = tmp_path / "flat.yaml"
        config.write_text(yaml.safe_dump(tree))
        monkeypatch.setattr(training, "_train_step",
                            lambda *args: pytest.fail("a training step ran"))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config), "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: config: scene.path: largest label {label} gives {classes} "
                       "classes, fewer than 2\n")
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("write, err", [
        (list_root_config, "error: config: root must be a mapping\n"),
        (unlabeled_file_scene_config, "error: config: scene has no labels\n"),
    ], ids=["list_root", "unlabeled_file_scene"])
    def test_refused_config_exits_1_naming_it(self, tmp_path, capsys, write, err):
        config = tmp_path / "c.yaml"
        config.write_text(write(tmp_path))
        out_dir = tmp_path / "run"
        code = main(["train", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == err
        assert not out_dir.exists()


class TestGradcheckCommand:
    def test_passes_for_attention(self, capsys):
        code = main(["gradcheck", "attention", "--seed", "2"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_component_is_validation_error(self):
        assert main(["gradcheck", "nonsense"]) == 1

    @pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "nan"),
                                             ("--tol", "-1"), ("--tol", "inf")])
    def test_step_and_tolerance_must_be_positive_and_finite(self, capsys, flag, value):
        # --eps 0 used to end in a ZeroDivisionError traceback, and --eps nan
        # in a report of a non-finite forward value
        assert main(["gradcheck", "linear", flag, value]) == 1
        assert f"{flag} must be positive and finite" in capsys.readouterr().err

    def test_usage_error_is_validation_error(self, capsys):
        # argparse's own exit code, 2, is the numerical-failure code
        assert main(["train", "--steps", "abc"]) == 1
        assert "argument --steps: invalid int value" in capsys.readouterr().err

    def test_impossible_tolerance_is_numerical_failure(self, capsys):
        code = main(["gradcheck", "linear", "--tol", "1e-18"])
        assert code == 2
        assert "FAILED" in capsys.readouterr().out
