"""Run configuration: a YAML key/value tree with a strict schema.

Unknown keys are rejected by dotted path; omitted keys take the defaults
below, which are read from the objects the tree builds (`ModelConfig`,
`TrainSettings`, `SceneSpec`): every plane's size, the cylindrical one
included, from `DEFAULT_RESOLUTIONS` and the cylindrical FOV from
`DEFAULT_SENSOR`.
`load_config` parses and validates a file; the `build_*` functions turn the
validated tree into concrete scene specs, plane specs, and model settings.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import yaml

from . import cloud as cloudmod
from .cloud import Primitive, SceneSpec
from .model import ModelConfig
from .projection import (
    DEFAULT_RESOLUTIONS,
    DEFAULT_SENSOR,
    PLANE_KINDS,
    SensorConfig,
    _ORTHO_AXES,
    default_plane_specs,
)
from .training import TrainSettings


class ConfigError(ValueError):
    """Configuration file violates the schema; message names the key."""


def _field_defaults(cls, skip=()):
    """The config section of a dataclass: its field defaults, tuples as lists."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING and f.name not in skip
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
        **_field_defaults(SceneSpec),
    },
    "eval_scene": None,           # same structure as scene; None = train scene
    "planes": {
        kind: {"height": DEFAULT_RESOLUTIONS[kind][0],
               "width": DEFAULT_RESOLUTIONS[kind][1],
               **({"extent": None, "depth_ref": None} if kind in _ORTHO_AXES
                  else {"fov_up_deg": math.degrees(DEFAULT_SENSOR.phi_up),
                        "fov_down_deg": math.degrees(DEFAULT_SENSOR.phi_down)})}
        for kind in PLANE_KINDS
    },
    # raster_channels is not configurable; seed is the top-level key
    "model": _field_defaults(ModelConfig, skip=("raster_channels", "seed")),
    "training": _field_defaults(TrainSettings),
}

# leaves where None is a meaningful value
_NULLABLE = {
    "threads", "eval_scene",
    "scene.name", "scene.path", "eval_scene.name", "eval_scene.path",
    *(f"planes.{kind}.{leaf}" for kind in _ORTHO_AXES
      for leaf in ("extent", "depth_ref")),
}

_FREEFORM = {"scene.primitives", "eval_scene.primitives"}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float)


def _list_of(test, length=None, at_least=1):
    """A list of at least `at_least` (exactly `length`, if given) items
    passing `test`."""
    return lambda v: (isinstance(v, list) and len(v) >= at_least
                      and length in (None, len(v)) and all(map(test, v)))


def _positive_int(v):
    return _is_int(v) and v > 0


# leaf name -> (what the value must be, test), beyond the default's type
_SHAPES = {
    "extent": ("a list of 4 numbers", _list_of(_is_number, 4)),
    "depth_ref": ("a number", _is_number),
    "room_extent": ("a list of 3 numbers", _list_of(_is_number, 3)),
    # stride-4 fusion needs the stride-2 stage and at least one more
    "encoder_widths": ("a list of two or more positive integers",
                       _list_of(_positive_int, at_least=2)),
    **dict.fromkeys(("heads", "head_dim", "point_width", "point_channels",
                     "feature_channels", "fused_channels"),
                    ("a positive integer", _positive_int)),
    "voxel_size": ("a positive number", lambda v: _is_number(v) and v > 0),
}


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
        if key in _SHAPES and not _SHAPES[key][1](value):
            raise ConfigError(f"config: {sub} must be {_SHAPES[key][0]}")
        if isinstance(default, dict):
            if sub in _FREEFORM:
                continue
            _typecheck(value, default, sub)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"config: {sub} must be a boolean")
        elif isinstance(default, int):
            if not _is_int(value):
                raise ConfigError(f"config: {sub} must be an integer")
        elif isinstance(default, float):
            if not _is_number(value):
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
            try:
                user = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
                problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
                raise ConfigError(f"config: {path}: malformed YAML{at}: {problem}") from None
    tree = validate_config(user)
    for key, value in (overrides or {}).items():
        if value is not None:
            tree[key] = value
    return tree


# ---------------------------------------------------------------------------
# Tree -> concrete objects
# ---------------------------------------------------------------------------


def _cast(value, default):
    """`value` in the type of `default`: list -> tuple of the default's
    element type, int -> float."""
    if isinstance(default, tuple):
        return tuple(_cast(v, default[0]) for v in value)
    return float(value) if isinstance(default, float) else value


def _from_section(cls, section, **given):
    """Dataclass `cls` from a validated section; `given` fields win."""
    for f in dataclasses.fields(cls):
        if f.name in section and f.name not in given:
            given[f.name] = _cast(section[f.name], f.default)
    return cls(**given)


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
    return _from_section(SceneSpec, scene_tree, primitives=tuple(prims))


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
    return SensorConfig(phi_up=math.radians(cyl["fov_up_deg"]),
                        phi_down=math.radians(cyl["fov_down_deg"]))


def plane_spec_builder(planes_tree):
    """Returns plane_spec_fn(cloud) -> six PlaneSpec.

    The specs are `default_plane_specs` at the configured sizes and sensor;
    an orthographic extent/depth ref given in the config replaces the one
    derived from each cloud's padded bounding box.
    """
    sensor = build_sensor(planes_tree)
    sizes = {kind: (planes_tree[kind]["height"], planes_tree[kind]["width"])
             for kind in PLANE_KINDS}
    given = {}
    for kind in _ORTHO_AXES:
        sub = planes_tree[kind]
        given[kind] = {}
        if sub["extent"] is not None:
            given[kind]["extent"] = tuple(float(v) for v in sub["extent"])
        if sub["depth_ref"] is not None:
            given[kind]["depth_ref"] = float(sub["depth_ref"])

    def build(cloud):
        return [dataclasses.replace(spec, **given.get(spec.kind, {}))
                for spec in default_plane_specs(cloud, sensor, sizes)]

    return build


def build_model_config(tree, num_classes) -> ModelConfig:
    return _from_section(ModelConfig, tree["model"], num_classes=num_classes,
                         seed=tree["seed"])


def build_train_settings(tree) -> TrainSettings:
    return _from_section(TrainSettings, tree["training"])


def scene_num_classes(tree, cloud=None) -> int:
    """Class count of the training scene: a synth recipe's `num_classes`,
    else one more than the largest label of the scene `build_scene` makes;
    pass that scene as `cloud` when it is already built."""
    scene = tree["scene"]
    if scene["kind"] == "synth":
        return scene["num_classes"]
    labels = (build_scene(scene) if cloud is None else cloud).labels
    if labels is None:
        raise ConfigError("config: scene has no labels")
    return int(labels.max()) + 1
