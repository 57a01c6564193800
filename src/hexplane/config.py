"""Run configuration: a YAML key/value tree with a strict schema.

Omitted keys take the defaults below, which are read from the objects the
tree builds (`ModelConfig`, `TrainSettings`, `SceneSpec`): every plane's
size, the cylindrical one included, from `DEFAULT_RESOLUTIONS` and the
cylindrical FOV from `DEFAULT_SENSOR`. `load_config` parses a file, lays the
CLI flags over it, and validates the result in one walk that merges and
checks each key in `DEFAULTS` order, naming the first bad key by dotted path;
the `build_*` functions turn the validated tree into concrete scene specs,
plane specs, and model settings.
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

# leaves where None is a meaningful value, by leaf name
_NULLABLE = {"threads", "eval_scene", "name", "path", "extent", "depth_ref"}

# one scene.primitives entry; every key is required
_PRIMITIVE = {"kind": "box", "center": [], "size": [], "class_id": 0}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _list_of(test, length=None, at_least=1):
    """A list of at least `at_least` (exactly `length`, if given) items
    passing `test`."""
    return lambda v: (isinstance(v, list) and len(v) >= at_least
                      and length in (None, len(v)) and all(map(test, v)))


def _int_from(low):
    return lambda v: _is_int(v) and v >= low


# default's type -> (what the value must be, test), first match wins
_TYPES = (
    (bool, "a boolean", lambda v: isinstance(v, bool)),
    (int, "an integer", _is_int),
    (float, "a finite number", _is_number),
    (str, "a string", lambda v: isinstance(v, str)),
    (list, "a list", lambda v: isinstance(v, list)),
    (object, "any value", lambda v: True),  # threads: accepted and ignored
)

# leaf name -> (what the value must be, test), in place of the default's type
_SHAPES = {
    "extent": ("a list of 4 numbers", _list_of(_is_number, 4)),
    "depth_ref": ("a number", _is_number),
    "room_extent": ("a list of 3 numbers", _list_of(_is_number, 3)),
    "center": ("a list of 3 numbers", _list_of(_is_number, 3)),
    "size": ("a list of numbers", _list_of(_is_number)),
    "path": ("a string", lambda v: isinstance(v, str)),
    # stride-4 fusion needs the stride-2 stage and at least one more
    "encoder_widths": ("a list of two or more positive integers",
                       _list_of(_int_from(1), at_least=2)),
    **dict.fromkeys(("heads", "head_dim", "point_width", "point_channels",
                     "feature_channels", "fused_channels", "height", "width",
                     "num_points"), ("a positive integer", _int_from(1))),
    **dict.fromkeys(("seed", "steps", "eval_every"),
                    ("a non-negative integer", _int_from(0))),
    "num_classes": ("an integer of at least 2", _int_from(2)),
    **dict.fromkeys(("voxel_size", "fov_up_deg", "fov_down_deg"),
                    ("a positive number", lambda v: _is_number(v) and v > 0)),
    **dict.fromkeys(("noise", "aux_weight"),
                    ("a non-negative number", lambda v: _is_number(v) and v >= 0)),
    **dict.fromkeys(("beta1", "beta2"),
                    ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1)),
}


def _validate(defaults, user, path="", required=False):
    """`user` merged over `defaults`, each key checked as it is merged:
    unknown keys first, then in `defaults` order null, then the leaf's shape
    or else its default's type. `eval_scene` takes the `scene` schema and
    each `primitives` entry `_PRIMITIVE`, whose keys are all `required`."""
    if not isinstance(user, dict):
        raise ConfigError(f"config: {path or 'root'} must be a mapping")
    prefix = f"{path}." if path else ""
    for key in user:
        if key not in defaults:
            raise ConfigError(f"config: unknown key '{prefix}{key}'")
    tree = {}
    for key, default in defaults.items():
        sub, value = prefix + key, user.get(key)
        if key not in user:
            if required:
                raise ConfigError(f"config: {sub} is required")
            tree[key] = copy.deepcopy(default)
        elif value is None and key in _NULLABLE:
            tree[key] = None
        elif isinstance(default, dict) or key == "eval_scene":
            # an empty section takes its defaults
            schema = DEFAULTS["scene"] if key == "eval_scene" else default
            tree[key] = _validate(schema, {} if value is None else value, sub)
        elif value is None:
            raise ConfigError(f"config: {sub} must not be null")
        else:
            what, test = _SHAPES.get(key) or next(
                (what, test) for kind, what, test in _TYPES if isinstance(default, kind))
            if not test(value):
                raise ConfigError(f"config: {sub} must be {what}")
            if key == "primitives":
                value = [_validate(_PRIMITIVE, p, f"{sub}[{i}]", required=True)
                         for i, p in enumerate(value)]
            tree[key] = value
    return tree


def validate_config(user: dict | None) -> dict:
    """Merge a user tree over the defaults, checking every key on the way."""
    return _validate(DEFAULTS, user or {})


def _overlay(user, flags):
    """`user` with the non-None leaves of the nested `flags` laid over it."""
    if not isinstance(flags, dict):
        return user if flags is None else flags
    if user is not None and not isinstance(user, dict):
        return user  # malformed: the walk names it
    merged = dict(user or {})
    for key, flag in flags.items():
        value = _overlay(merged.get(key), flag)
        if value is not None:
            merged[key] = value
    return merged


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Read the file, lay the non-None leaves of the nested `overrides` over
    it (CLI flags win over the file), and validate the result."""
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
    return validate_config(_overlay(user, overrides))


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


def build_scene_spec(scene_tree, section="scene") -> SceneSpec:
    """The SceneSpec of a validated `section` (`scene` or `eval_scene`).

    The class-id range and room containment that the spec and `synth_scene`
    enforce span several keys; they are checked here, naming the key."""
    classes = scene_tree["num_classes"]
    room = _cast(scene_tree["room_extent"], (0.0,))
    ids = [(f"{section}.{key}", scene_tree[key]) for key in ("floor_class", "wall_class")]
    prims = []
    for i, p in enumerate(scene_tree["primitives"]):
        key = f"{section}.primitives[{i}]"
        try:
            prims.append(Primitive(kind=p["kind"], center=_cast(p["center"], (0.0,)),
                                   size=_cast(p["size"], (0.0,)), class_id=p["class_id"]))
            cloudmod.check_primitive_in_room(prims[-1], room)
        except ValueError as exc:
            raise ConfigError(f"config: {key}: {exc}") from exc
        ids.append((f"{key}.class_id", p["class_id"]))
    for key, cls in ids:
        if not 0 <= cls < classes:
            raise ConfigError(f"config: {key} must be a class id in [0, {classes})")
    return _from_section(SceneSpec, scene_tree, primitives=tuple(prims))


def build_scene(scene_tree, section="scene"):
    """Materialize the scene tree of `section` into a labeled PointCloud."""
    kind = scene_tree["kind"]
    if kind == "synth":
        return cloudmod.synth_scene(build_scene_spec(scene_tree, section))
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
            raise ConfigError(f"config: {section}.path required for kind 'file'")
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
