"""Config tree -> objects: defaults, explicit plane geometry, type casts, and
clean exits on malformed values."""

import dataclasses

import numpy as np
import pytest
import yaml

from hexplane import config as cfg
from hexplane.cli import main
from hexplane.cloud import PointCloud, Primitive, SceneSpec, save_pointcloud
from hexplane.model import ModelConfig
from hexplane.projection import DEFAULT_RESOLUTIONS, DEFAULT_SENSOR, default_plane_specs
from hexplane.training import TrainSettings


def field_types(obj):
    return {f.name: type(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def small_cloud(seed=0):
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(60, 3)) * (3.0, 2.0, 1.0) + (0.0, 0.0, 2.0)
    return PointCloud(positions=positions, labels=rng.integers(0, 3, size=60))


class TestDefaults:
    def test_empty_config_builds_dataclass_defaults(self):
        tree = cfg.validate_config({})
        k = cfg.scene_num_classes(tree)
        want = {
            "model": (cfg.build_model_config(tree, k), ModelConfig(num_classes=k, seed=0)),
            "training": (cfg.build_train_settings(tree), TrainSettings()),
            "scene": (cfg.build_scene_spec(tree["scene"]),
                      SceneSpec(seed=0, num_points=2000, num_classes=3)),
            "sensor": (cfg.build_sensor(tree["planes"]), DEFAULT_SENSOR),
        }
        for name, (got, default) in want.items():
            assert got == default, name
            assert field_types(got) == field_types(default), name

    def test_empty_config_cylindrical_size_is_the_default_resolution(self):
        cyl = cfg.validate_config({})["planes"]["cylindrical"]
        assert (cyl["height"], cyl["width"]) == DEFAULT_RESOLUTIONS["cylindrical"]

    def test_empty_config_plane_specs_are_the_default_specs(self):
        spec_fn = cfg.plane_spec_builder(cfg.validate_config({})["planes"])
        for seed in range(3):
            cloud = small_cloud(seed)
            assert spec_fn(cloud) == default_plane_specs(cloud)


class TestExplicitGeometry:
    @pytest.mark.parametrize("depth_ref", [3, None])
    def test_explicit_extent_and_depth_ref_override_auto(self, depth_ref):
        planes = {
            "xy_top": {"extent": [-5, 5, -4, 4.5], "depth_ref": depth_ref},
            "yz_left": {"depth_ref": -7},
        }
        spec_fn = cfg.plane_spec_builder(cfg.validate_config({"planes": planes})["planes"])
        cloud = small_cloud()
        got = {s.kind: s for s in spec_fn(cloud)}
        auto = {s.kind: s for s in default_plane_specs(cloud)}

        top = got["xy_top"]
        assert top.extent == (-5.0, 5.0, -4.0, 4.5)
        assert all(type(e) is float for e in top.extent)
        want_ref = auto["xy_top"].depth_ref if depth_ref is None else 3.0
        assert top.depth_ref == want_ref and type(top.depth_ref) is float

        left = got["yz_left"]
        assert left.extent == auto["yz_left"].extent
        assert left.depth_ref == -7.0 and type(left.depth_ref) is float

        for kind in ("xz_front", "xz_back", "yz_right", "cylindrical"):
            assert got[kind] == auto[kind], kind

    def test_explicit_extent_is_fixed_across_clouds(self):
        planes = {"xz_front": {"extent": [-1, 1, 0, 2], "depth_ref": 0.5}}
        spec_fn = cfg.plane_spec_builder(cfg.validate_config({"planes": planes})["planes"])
        a, b = spec_fn(small_cloud(1)), spec_fn(small_cloud(2))
        assert a[1] == b[1]
        assert a[0] != b[0]


class TestCasts:
    def test_ints_for_float_keys_arrive_as_floats(self):
        float_keys = {
            section: [f.name for f in dataclasses.fields(cls)
                      if type(f.default) is float]
            for section, cls in (("model", ModelConfig), ("training", TrainSettings))
        }
        # the betas must lie in [0, 1), and lr_max * weight_decay below 1
        zero = ("beta1", "beta2", "weight_decay")
        user = {section: {key: 0 if key in zero else 1 for key in keys}
                for section, keys in float_keys.items()}
        user["model"]["encoder_widths"] = [4, 8, 16]
        user["scene"] = {"room_extent": [8, 8, 3], "noise": 0, "primitives": [
            {"kind": "box", "center": [1, 0, 0.5], "size": [1, 2, 1], "class_id": 2}]}
        tree = cfg.validate_config(user)

        model = cfg.build_model_config(tree, 3)
        settings = cfg.build_train_settings(tree)
        for obj, section in ((model, "model"), (settings, "training")):
            assert float_keys[section]
            for key in float_keys[section]:
                value = getattr(obj, key)
                assert value == user[section][key] and type(value) is float, key
        assert model.encoder_widths == (4, 8, 16)
        assert type(model.encoder_widths) is tuple

        scene = cfg.build_scene_spec(tree["scene"])
        assert scene.room_extent == (8.0, 8.0, 3.0)
        assert all(type(v) is float for v in scene.room_extent)
        assert scene.noise == 0.0 and type(scene.noise) is float
        assert scene.primitives == (Primitive("box", (1.0, 0.0, 0.5), (1.0, 2.0, 1.0), 2),)


BOX = {"kind": "box", "center": [0, 0, 0.5], "size": [1, 1, 1], "class_id": 2}

MALFORMED = [
    ("project", {"planes": {"xy_top": {"extent": 5}}}, "planes.xy_top.extent"),
    ("project", {"planes": {"xy_top": {"extent": [0, 1, 0]}}}, "planes.xy_top.extent"),
    ("project", {"planes": {"xz_back": {"extent": [0, 1, "a", 2]}}},
     "planes.xz_back.extent"),
    ("project", {"planes": {"xy_top": {"depth_ref": [1]}}}, "planes.xy_top.depth_ref"),
    ("project", {"planes": {"yz_left": {"depth_ref": True}}}, "planes.yz_left.depth_ref"),
    ("train", {"model": {"encoder_widths": [8, "a", 32]}}, "model.encoder_widths"),
    ("train", {"model": {"encoder_widths": [8, 0, 32]}}, "model.encoder_widths"),
    ("train", {"model": {"encoder_widths": [8, 16.0, 32]}}, "model.encoder_widths"),
    ("train", {"model": {"encoder_widths": []}}, "model.encoder_widths"),
    ("train", {"scene": {"room_extent": [8, 8]}}, "scene.room_extent"),
    ("train", {"scene": {"room_extent": [8, "x", 3]}}, "scene.room_extent"),
    ("train", {"eval_scene": {"room_extent": 4}}, "eval_scene.room_extent"),
    # stride-4 fusion needs two stages; one used to fail after the model was built
    ("train", {"model": {"encoder_widths": [8]}}, "model.encoder_widths"),
    # a retired option is an unknown key, not a silent no-op
    ("train", {"model": {"residual": True}}, "model.residual"),
    # a zero size used to die in the initializer with a traceback, a zero
    # voxel size to train through division warnings
    ("train", {"model": {"heads": 0}}, "model.heads"),
    ("train", {"model": {"head_dim": 0}}, "model.head_dim"),
    ("train", {"model": {"point_width": 0}}, "model.point_width"),
    ("train", {"model": {"point_channels": 0}}, "model.point_channels"),
    ("train", {"model": {"feature_channels": 0}}, "model.feature_channels"),
    ("train", {"model": {"fused_channels": 0}}, "model.fused_channels"),
    ("train", {"model": {"voxel_size": 0.0}}, "model.voxel_size"),
    ("train", {"model": {"slope": 0.2}}, "model.slope"),
    # rules the built objects enforced later, in messages that named no key;
    # project loads the file without a --steps flag to override it
    ("project", {"training": {"steps": -1}}, "training.steps"),
    ("train", {"training": {"eval_every": -5}}, "training.eval_every"),
    ("project", {"planes": {"xy_top": {"height": 0}}}, "planes.xy_top.height"),
    ("project", {"planes": {"xz_front": {"width": 0}}}, "planes.xz_front.width"),
    ("train", {"scene": {"num_points": 0}}, "scene.num_points"),
    ("train", {"scene": {"num_classes": 1}}, "scene.num_classes"),
    ("project", {"planes": {"cylindrical": {"fov_up_deg": 0}}},
     "planes.cylindrical.fov_up_deg"),
    ("project", {"planes": {"cylindrical": {"fov_down_deg": 0}}},
     "planes.cylindrical.fov_down_deg"),
    ("train", {"scene": {"noise": -1.0}}, "scene.noise"),
    ("train", {"training": {"aux_weight": -0.5}}, "training.aux_weight"),
    ("train", {"scene": {"primitives": [{**BOX, "center": [0, 0]}]}},
     "scene.primitives[0].center"),
    ("train", {"scene": {"primitives": [{**BOX, "size": [[1], 1, 1]}]}},
     "scene.primitives[0].size"),
    ("train", {"scene": {"kind": "file", "path": 5}}, "scene.path"),
    # an infinite voxel size used to train and exit 0, a NaN rate to diverge
    ("train", {"model": {"voxel_size": float("inf")}}, "model.voxel_size"),
    ("train", {"training": {"lr_max": float("nan")}}, "training.lr_max"),
    # primitives are checked in eval_scene too, and their class id is not truncated
    ("train", {"eval_scene": {"primitives": [{**BOX, "center": [0, 0]}]}},
     "eval_scene.primitives[0].center"),
    ("train", {"scene": {"primitives": [{**BOX, "class_id": 2.7}]}},
     "scene.primitives[0].class_id"),
    ("train", {"scene": {"primitives": [{k: v for k, v in BOX.items() if k != "class_id"}]}},
     "scene.primitives[0].class_id is required"),
    # 1e300 escaped as an OverflowError in the optimizer, 1 failed as a
    # non-finite loss, -1 trained; a negative seed named no key
    *(("train", {"training": {beta: value}}, f"training.{beta}")
      for beta in ("beta1", "beta2") for value in (1e300, 1.0, -1.0)),
    ("train", {"seed": -1}, "config: seed must"),
    ("train", {"scene": {"seed": -1}}, "scene.seed"),
    ("train", {"eval_scene": {"seed": -1}}, "eval_scene.seed"),
    # an eval_scene primitive or path used to be named as the train scene's
    ("train", {"eval_scene": {"primitives": [{**BOX, "kind": "sphere"}]}},
     "eval_scene.primitives[0]: unknown primitive kind"),
    ("train", {"scene": {"primitives": [{**BOX, "kind": "sphere"}]}},
     "config: scene.primitives[0]: unknown primitive kind"),
    ("train", {"eval_scene": {"kind": "file"}}, "eval_scene.path required"),
    # cross-field rules the spec enforced in messages that named no key
    ("train", {"scene": {"primitives": [{**BOX, "class_id": 5}]}},
     "scene.primitives[0].class_id must be a class id in [0, 3)"),
    ("train", {"eval_scene": {"primitives": [BOX, {**BOX, "class_id": -1}]}},
     "eval_scene.primitives[1].class_id"),
    ("train", {"scene": {"floor_class": 3}}, "scene.floor_class"),
    ("train", {"scene": {"num_classes": 2, "primitives": [BOX]}},
     "scene.primitives[0].class_id"),
    ("train", {"eval_scene": {"wall_class": -1}}, "eval_scene.wall_class"),
    ("train", {"scene": {"primitives": [{**BOX, "center": [40, 0, 0.5]}]}},
     "scene.primitives[0]: primitive outside room (8.0, 8.0, 3.0)"),
    ("train", {"eval_scene": {"primitives": [
        {"kind": "cylinder", "center": [0, 0, 2.5], "size": [0.5, 2], "class_id": 2}]}},
     "eval_scene.primitives[0]: primitive outside room"),
    # a point budget below the class count failed in the sampler, naming no key
    ("train", {"scene": {"num_classes": 3, "num_points": 2, "primitives": [BOX]}},
     "scene.num_points: 2 points cannot cover 3 classes"),
    ("train", {"eval_scene": {"num_points": 2, "primitives": [BOX]}},
     "eval_scene.num_points: 2 points cannot cover 3 classes"),
    ("train", {"scene": {"num_classes": 2, "num_points": 1}},
     "scene.num_points: 1 points cannot cover 2 classes"),
    # the input width is read from the scenes: the retired key restated it
    ("train", {"model": {"point_channels": 5}}, "config: unknown key 'model.point_channels'"),
    # a negative rate trained by gradient ascent and a negative decay grew
    # every weight each step, both exiting 0
    ("train", {"training": {"lr_max": -0.003}}, "training.lr_max must be a positive number"),
    ("train", {"training": {"lr_max": 0}}, "training.lr_max must be a positive number"),
    ("train", {"training": {"weight_decay": -0.5}},
     "training.weight_decay must be a non-negative number"),
    # at lr * wd >= 1 the decay factor 1 - lr * wd is <= 0: each of these
    # printed overflow warnings, then exited 2 as a non-finite loss
    ("train", {"training": {"lr_max": 1e300}},
     "training.lr_max * training.weight_decay must be below 1"),
    ("train", {"training": {"weight_decay": 1e300}},
     "training.lr_max * training.weight_decay must be below 1"),
    ("train", {"training": {"lr_max": 2.0, "weight_decay": 0.5}},
     "training.lr_max * training.weight_decay must be below 1, got 2 * 0.5"),
    # an unknown kind named the value, not the key
    ("train", {"eval_scene": {"kind": "builtin"}},
     "config: eval_scene.kind: unknown scene kind 'builtin'"),
    ("train", {"scene": {"kind": "nope"}}, "config: scene.kind: unknown scene kind 'nope'"),
    # a noise that can push a point past float64 is named before any point is
    # sampled; a sampled point too far from the origin named no key
    ("train", {"scene": {"room_extent": [1.0e153, 8.0, 1.3e154], "noise": 3.0e153}},
     "config: scene.noise 3e+153 can push a point's distance past float64"),
    # a cell index past int64 used to train through a cast warning to exit 0
    ("train", {"model": {"voxel_size": 1.0e-300}}, "config: model.voxel_size"),
    # a room whose face areas overflow printed four warnings, then failed in
    # the sampler as "max() arg is an empty sequence", naming no key
    ("train", {"scene": {"room_extent": [1.0e300, 8.0, 3.0]}}, "config: scene.room_extent"),
    ("train", {"eval_scene": {"kind": "synth", "room_extent": [8.0, 1.4e154, 3.0]}},
     "config: eval_scene.room_extent"),
    # a primitive whose area pushed the surfaces' total past float64 printed
    # an overflow warning, then failed on model.voxel_size
    ("train", {"scene": {"room_extent": [5.0e153, 5.0e153, 5.0e153], "primitives": [
        {"kind": "cylinder", "center": [0, 0, 2.5e153], "size": [2.5e153, 5.0e153],
         "class_id": 2}]}}, "config: scene.primitives: the surfaces' areas sum past float64"),
    # a noise that pushed points too far named the section, or else the voxel size
    ("train", {"scene": {"noise": 1e300, "num_points": 300}},
     "scene.noise 1e+300 can push a point's distance past float64"),
    ("train", {"eval_scene": {"kind": "synth", "noise": 1.0e154}},
     "config: eval_scene.noise 1e+154 can push"),
    # a room whose own far corner is past float64 is not blamed on the noise,
    # nor on model.voxel_size once its points are sampled
    ("train", {"scene": {"room_extent": [1.0e153, 8.0, 1.3407e154], "num_points": 300}},
     "config: scene.room_extent: room (1e+153, 8.0, 1.3407e+154) has a corner"),
    # a degenerate extent was refused by the plane spec, naming no key
    ("project", {"planes": {"xy_top": {"extent": [1, 0, 0, 1]}}},
     "planes.xy_top.extent must be 4 numbers"),
    ("train", {"planes": {"yz_right": {"extent": [0, 1, 2, 2]}}}, "planes.yz_right.extent"),
    # a room with no area printed an overflow warning, then failed in the
    # sampler as "max() arg is an empty sequence"
    ("train", {"scene": {"room_extent": [0, 0, 0]}},
     "config: scene.room_extent: room (0.0, 0.0, 0.0) has no face with an area"),
    ("train", {"eval_scene": {"kind": "synth", "room_extent": [1.0e-200, 1.0e-200, 1.0]}},
     "config: eval_scene.room_extent"),
    # a negative side trained on a mirrored room and exited 0
    ("train", {"scene": {"room_extent": [-6, 6, 2.5]}},
     "config: scene.room_extent: room (-6.0, 6.0, 2.5) has a negative side"),
    ("train", {"eval_scene": {"kind": "synth", "room_extent": [8, 8, -3]}},
     "config: eval_scene.room_extent: room (8.0, 8.0, -3.0) has a negative side"),
    # a class count no confusion matrix holds used to train and then need one
    ("train", {"scene": {"num_classes": 4097}}, "scene.num_classes must be an integer in "
                                                "[2, 4096]"),
    # a room within float64 but wider than int64 cells of the default voxel
    # is refused on the voxel size once its points are sampled
    ("train", {"scene": {"room_extent": [2.0e19, 8.0, 3.0], "num_points": 300}},
     "config: model.voxel_size 0.4 gives more than 2**62 cells"),
    # a scene is a synth recipe, the occlusion scene or a file: no name picks one
    ("train", {"scene": {"name": "two_class"}}, "config: unknown key 'scene.name'"),
    # a depth whose square overflows exited 2 as a non-finite gradient
    ("train", {"planes": {"xy_top": {"depth_ref": 1.0e300}}},
     "config: planes.xy_top.depth_ref must be a number whose square is within float64"),
    # a FOV whose radians round to 0 was refused by the sensor, naming no key
    ("project", {"planes": {"cylindrical": {"fov_up_deg": 5.0e-324}}},
     "config: planes.cylindrical.fov_up_deg must be a number that is positive in radians"),
    # an integer past float64 died in the float cast with an OverflowError traceback
    *(("train", tree, f"config: {key} must be")
      for key, tree in (
          ("training.lr_max", {"training": {"lr_max": 10**400}}),
          ("planes.xy_top.depth_ref", {"planes": {"xy_top": {"depth_ref": 10**400}}}),
          ("scene.noise", {"scene": {"noise": 10**400}}),
          ("scene.room_extent", {"scene": {"room_extent": [8, 10**400, 3]}}),
          ("model.voxel_size", {"model": {"voxel_size": 10**400}}))),
]


@pytest.mark.parametrize("command,user,key", MALFORMED,
                         ids=[f"{c}-{k}-{i}" for i, (c, _, k) in enumerate(MALFORMED)])
def test_malformed_value_exits_1_naming_the_key(tmp_path, capsys, command, user, key):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(user))
    if command == "project":
        cloud_path = tmp_path / "cloud.bin"
        save_pointcloud(cloud_path, small_cloud())
        argv = ["project", str(cloud_path), "--config", str(path),
                "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["train", "--config", str(path), "--steps", "1",
                "--output-dir", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config:")
    assert key in err
    assert "Traceback" not in err


def test_flags_are_laid_over_the_file_before_validation(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"seed": 3, "scene": {"seed": 4, "num_points": 100}}))
    flags = {"seed": None, "scene": {"seed": 9, "num_classes": None}}
    tree = cfg.load_config(path, flags)
    assert tree == cfg.validate_config({"seed": 3, "scene": {"seed": 9, "num_points": 100}})
    with pytest.raises(cfg.ConfigError, match="config: scene.num_points must be"):
        cfg.load_config(path, {"scene": {"num_points": 0}})


def test_a_distance_that_overflows_exits_1_without_a_warning(tmp_path, capsys):
    # coordinates near 1e300 are finite, but their squared distance is not:
    # they used to train into a non-finite loss (exit 2) after five warnings,
    # then to be named by the first sampled point too far from the origin
    path = tmp_path / "far.yaml"
    path.write_text(yaml.safe_dump({"scene": {"noise": 1.0e300, "num_points": 300}}))
    code = main(["train", "--config", str(path), "--steps", "1",
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: config: scene.noise 1e+300 can push a point's distance past float64\n"
