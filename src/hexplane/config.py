"""Run configuration: a YAML key/value tree with a strict schema.

Unknown keys are rejected by dotted path; omitted keys take the defaults
below. `load_config` parses and validates a file, `build_run` turns the
validated tree into concrete scene specs, plane specs, and model settings.
"""

from __future__ import annotations

import copy
import math

import yaml

from . import cloud as cloudmod
from .cloud import Primitive, SceneSpec
from .model import ModelConfig
from .projection import (
    DEFAULT_RESOLUTIONS,
    PLANE_KINDS,
    PlaneSpec,
    SensorConfig,
    auto_extent,
    ortho_geometry,
)
from .training import TrainSettings


class ConfigError(ValueError):
    """Configuration file violates the schema; message names the key."""


_PLANE_DEFAULTS = {
    kind: {"height": DEFAULT_RESOLUTIONS[kind][0],
           "width": DEFAULT_RESOLUTIONS[kind][1],
           "extent": None, "depth_ref": None}
    for kind in PLANE_KINDS if kind != "cylindrical"
}

DEFAULTS = {
    "seed": 0,
    "output_dir": "runs/out",
    "threads": None,              # accepted and ignored
    "scene": {
        "kind": "synth",          # synth | builtin | file
        "name": None,             # builtin: two_class | occlusion
        "path": None,             # cloud file for kind=file
        "seed": 0,
        "num_points": 2000,
        "num_classes": 3,
        "room_extent": [8.0, 8.0, 3.0],
        "floor_class": 0,
        "wall_class": 1,
        "noise": 0.01,
        "primitives": [],
    },
    "eval_scene": None,           # same structure as scene; None = train scene
    "planes": {
        **_PLANE_DEFAULTS,
        "cylindrical": {"height": 64, "width": 512,
                        "fov_up_deg": 45.0, "fov_down_deg": 30.0},
    },
    "model": {
        "point_channels": 4,
        "point_width": 64,
        "voxel_size": 0.4,
        "encoder_widths": [16, 32, 64],
        "feature_channels": 64,
        "slope": 0.1,
        "heads": 4,
        "head_dim": 16,
        "fused_channels": 64,
        "residual": False,
        "use_planes": True,
    },
    "training": {
        "steps": 300,
        "lr_max": 3.5e-4,
        "weight_decay": 0.01,
        "beta1": 0.9,
        "beta2": 0.999,
        "aux_weight": 0.4,
        "eval_every": 50,
        "augment": False,
    },
}

# leaves where None is a meaningful value
_NULLABLE = {
    "threads", "eval_scene",
    "scene.name", "scene.path", "eval_scene.name", "eval_scene.path",
}
for _kind in _PLANE_DEFAULTS:
    _NULLABLE.add(f"planes.{_kind}.extent")
    _NULLABLE.add(f"planes.{_kind}.depth_ref")

_FREEFORM = {"scene.primitives", "eval_scene.primitives"}


def _merge(defaults, user, path=""):
    if user is None:
        return None if path in _NULLABLE else copy.deepcopy(defaults)
    if not isinstance(user, dict):
        raise ConfigError(f"config: {path or 'root'} must be a mapping")
    merged = {}
    for key, default in defaults.items():
        sub = f"{path}.{key}" if path else key
        if key not in user:
            merged[key] = copy.deepcopy(default)
        elif isinstance(default, dict) and sub not in _FREEFORM:
            merged[key] = _merge(default, user[key], sub)
        else:
            merged[key] = user[key]
    for key in user:
        if key not in defaults:
            sub = f"{path}.{key}" if path else key
            raise ConfigError(f"config: unknown key {sub!r}")
    return merged


def _typecheck(tree, defaults, path=""):
    for key, default in defaults.items():
        sub = f"{path}.{key}" if path else key
        value = tree[key]
        if value is None:
            if sub in _NULLABLE:
                continue
            raise ConfigError(f"config: {sub} must not be null")
        if isinstance(default, dict):
            if sub in _FREEFORM:
                continue
            _typecheck(value, default, sub)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"config: {sub} must be a boolean")
        elif isinstance(default, int) and not isinstance(default, bool):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"config: {sub} must be an integer")
        elif isinstance(default, float):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"config: {sub} must be a number")
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"config: {sub} must be a string")
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"config: {sub} must be a list")


def validate_config(user: dict | None) -> dict:
    """Merge a user tree over the defaults, rejecting unknown keys."""
    merged = _merge(DEFAULTS, user or {})
    # eval_scene inherits the scene schema when present
    if merged.get("eval_scene") is not None:
        merged["eval_scene"] = _merge(DEFAULTS["scene"], merged["eval_scene"],
                                      "eval_scene")
    _typecheck(merged, DEFAULTS)
    if merged.get("eval_scene") is not None:
        _typecheck(merged["eval_scene"], DEFAULTS["scene"], "eval_scene")
    return merged


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Read, validate, and return the config tree; `overrides` are applied
    to top-level keys after validation (CLI flags win over the file)."""
    user = {}
    if path is not None:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
    tree = validate_config(user)
    for key, value in (overrides or {}).items():
        if value is not None:
            tree[key] = value
    return tree


# ---------------------------------------------------------------------------
# Tree -> concrete objects
# ---------------------------------------------------------------------------


def build_scene_spec(scene_tree) -> SceneSpec:
    prims = []
    for i, p in enumerate(scene_tree["primitives"]):
        if not isinstance(p, dict):
            raise ConfigError(f"config: scene.primitives[{i}] must be a mapping")
        extra = set(p) - {"kind", "center", "size", "class_id"}
        if extra:
            raise ConfigError(
                f"config: unknown key 'scene.primitives[{i}].{sorted(extra)[0]}'"
            )
        try:
            prims.append(
                Primitive(
                    kind=p["kind"],
                    center=tuple(float(v) for v in p["center"]),
                    size=tuple(float(v) for v in p["size"]),
                    class_id=int(p["class_id"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config: scene.primitives[{i}]: {exc}") from exc
    return SceneSpec(
        seed=scene_tree["seed"],
        num_points=scene_tree["num_points"],
        num_classes=scene_tree["num_classes"],
        room_extent=tuple(float(v) for v in scene_tree["room_extent"]),
        primitives=tuple(prims),
        floor_class=scene_tree["floor_class"],
        wall_class=scene_tree["wall_class"],
        noise=float(scene_tree["noise"]),
    )


def build_scene(scene_tree):
    """Materialize a scene tree into a labeled PointCloud."""
    kind = scene_tree["kind"]
    if kind == "synth":
        return cloudmod.synth_scene(build_scene_spec(scene_tree))
    if kind == "builtin":
        name = scene_tree["name"]
        if name == "two_class":
            spec = cloudmod.two_class_spec(
                seed=scene_tree["seed"], num_points=scene_tree["num_points"]
            )
            return cloudmod.synth_scene(spec)
        if name == "occlusion":
            return cloudmod.make_occlusion_scene()[0]
        raise ConfigError(f"config: unknown builtin scene {name!r}")
    if kind == "file":
        if not scene_tree["path"]:
            raise ConfigError("config: scene.path required for kind 'file'")
        return cloudmod.load_pointcloud(scene_tree["path"])
    raise ConfigError(f"config: unknown scene kind {kind!r}")


def build_sensor(planes_tree) -> SensorConfig:
    cyl = planes_tree["cylindrical"]
    return SensorConfig(
        phi_up=math.radians(cyl["fov_up_deg"]),
        phi_down=math.radians(cyl["fov_down_deg"]),
        height=cyl["height"],
        width=cyl["width"],
    )


def plane_spec_builder(planes_tree):
    """Returns plane_spec_fn(cloud) -> six PlaneSpec.

    Orthographic extents/depth refs left null in the config are derived from
    each cloud's padded bounding box.
    """
    sensor = build_sensor(planes_tree)

    def build(cloud):
        lo, hi = auto_extent(cloud)
        specs = []
        for kind in PLANE_KINDS:
            if kind == "cylindrical":
                specs.append(
                    PlaneSpec(kind=kind, height=sensor.height, width=sensor.width,
                              sensor=sensor)
                )
                continue
            sub = planes_tree[kind]
            extent, depth_ref = ortho_geometry(kind, lo, hi)
            if sub["extent"] is not None:
                extent = sub["extent"]
            if sub["depth_ref"] is not None:
                depth_ref = sub["depth_ref"]
            specs.append(
                PlaneSpec(
                    kind=kind,
                    height=sub["height"],
                    width=sub["width"],
                    extent=tuple(float(v) for v in extent),
                    depth_ref=float(depth_ref),
                )
            )
        return specs

    return build


def build_model_config(tree, num_classes) -> ModelConfig:
    m = tree["model"]
    return ModelConfig(
        num_classes=num_classes,
        point_channels=m["point_channels"],
        point_width=m["point_width"],
        voxel_size=float(m["voxel_size"]),
        encoder_widths=tuple(m["encoder_widths"]),
        feature_channels=m["feature_channels"],
        slope=float(m["slope"]),
        heads=m["heads"],
        head_dim=m["head_dim"],
        fused_channels=m["fused_channels"],
        residual=m["residual"],
        use_planes=m["use_planes"],
        seed=tree["seed"],
    )


def build_train_settings(tree) -> TrainSettings:
    t = tree["training"]
    return TrainSettings(
        steps=t["steps"],
        lr_max=float(t["lr_max"]),
        weight_decay=float(t["weight_decay"]),
        beta1=float(t["beta1"]),
        beta2=float(t["beta2"]),
        aux_weight=float(t["aux_weight"]),
        eval_every=t["eval_every"],
        augment=t["augment"],
    )


def scene_num_classes(tree) -> int:
    scene = tree["scene"]
    if scene["kind"] == "builtin" and scene["name"] == "occlusion":
        return 3
    if scene["kind"] == "builtin" and scene["name"] == "two_class":
        return 2
    if scene["kind"] == "file":
        c = cloudmod.load_pointcloud(scene["path"])
        if c.labels is None:
            raise ConfigError("config: file scene has no labels")
        return int(c.labels.max()) + 1
    return scene["num_classes"]
