"""Point-cloud data model, file I/O, synthetic scenes, and augmentation.

File formats
------------
ASCII, whitespace separated, one point per line, ``#`` starts a comment:

    hexpc ascii N C has_labels
    x y z [extra feature columns...] [label]

``C`` counts all float columns of a record (>= 3); the first three are the
point position in meters.  ``has_labels`` is 0 or 1; when 1, the last column
of every record is an integer label, with -1 marking unlabeled points.

Binary, little-endian:

    magic       b"HEXPC\\0"
    u16         version (= 1)
    u64         N
    u16         C
    u8          has_labels
    N records   C * f32  [+ i32 label]

Binary round-trips are byte-exact: ``save(load(f))`` reproduces the
canonical bytes of ``f``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

UNLABELED = -1
_LABEL_MAX = np.iinfo(np.int32).max  # labels are stored as <i4

_MAGIC = b"HEXPC\x00"
_VERSION = 1


class CloudFormatError(ValueError):
    """Malformed point-cloud file, or a cloud value that the format cannot hold."""


def _frozen(value, dtype) -> np.ndarray:
    """Read-only C-contiguous `value`; a caller's array is copied unless it,
    and the array that owns its memory, are read-only, so no writable caller
    array aliases it."""
    arr = np.ascontiguousarray(value, dtype=dtype)
    owner = arr if arr.base is None else arr.base
    if arr is value and not (isinstance(owner, np.ndarray) and owner.base is None
                             and not owner.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable set of N labeled 3D points; equality and hash are identity.

    positions: (N, 3) float64, meters: a read-only, F-ordered view of `axes`,
               so code that needs C-ordered rows of points copies them.
    features:  optional (N, C) float64 extra per-point input columns, the
               position excluded (a file's columns after x y z).
    labels:    optional (N,) int64 class ids, UNLABELED (-1) for ignored.
    axes:      (3, N) float64, the one stored copy of the coordinates: rows
               x, y, z, each contiguous; read-only.
    depths:    (N,) float64 distance of each point from the origin, bit for
               bit np.linalg.norm's; computed once, read-only.
    """

    positions: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    axes: np.ndarray = field(init=False, repr=False)
    depths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        axes = _frozen(np.asarray(self.positions).T, np.float64)
        if axes.ndim != 2 or axes.shape[0] != 3:
            raise ValueError(f"positions must be (N, 3), got {axes.shape[::-1]}")
        n = axes.shape[1]
        if n < 1:
            raise ValueError("point cloud must contain at least one point")
        x, y, z = axes
        with np.errstate(over="ignore"):
            depths = np.sqrt((x * x + y * y) + z * z)
        # a non-finite coordinate makes its distance non-finite too
        if not np.isfinite(depths).all():
            finite = np.isfinite(axes).all(axis=0)
            if not finite.all():
                raise ValueError(f"non-finite position at point {int(np.argmin(finite))}")
            raise ValueError(f"point {int(np.argmax(np.isinf(depths)))} is too far from "
                             "the origin: its distance overflows")
        depths.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "positions", axes.T)
        object.__setattr__(self, "depths", depths)

        if self.features is not None:
            feats = _frozen(self.features, np.float64)
            if feats.ndim != 2 or feats.shape[0] != n:
                raise ValueError(f"features must have {n} rows, got shape {feats.shape}")
            object.__setattr__(self, "features", feats)

        if self.labels is not None:
            labels = _frozen(self.labels, np.int64)
            if labels.ndim != 1 or labels.shape[0] != n:
                raise ValueError(f"labels must have {n} entries, got shape {labels.shape}")
            if labels.min(initial=0) < UNLABELED:
                bad = int(np.argwhere(labels < UNLABELED)[0, 0])
                raise ValueError(f"label out of range at point {bad}")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.axes.shape[1]


def default_features(cloud: PointCloud) -> np.ndarray:
    """Default per-point input vector (x, y, z, depth-to-origin), (N, 4)."""
    return np.concatenate([cloud.positions, cloud.depths[:, None]], axis=1)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _canonical_columns(cloud: PointCloud) -> np.ndarray:
    """Float32 record matrix: positions first, then extra feature columns.
    A value that float32 cannot hold is refused, as the loader would."""
    cols = cloud.positions if cloud.features is None else np.concatenate(
        [cloud.positions, cloud.features], axis=1)
    with np.errstate(over="ignore"):
        cols = cols.astype(np.float32)
    bad = ~np.isfinite(cols).all(axis=1)
    if bad.any():
        raise CloudFormatError(f"value at point {int(np.argmax(bad))} is not a finite "
                               "float32, as the format stores positions and features")
    return cols


def save_pointcloud(path, cloud: PointCloud, format: str = "binary") -> None:
    """Write a cloud in the ASCII or binary container format."""
    cols = _canonical_columns(cloud)
    n, c = cols.shape
    has_labels = cloud.labels is not None
    if has_labels and cloud.labels.max() > _LABEL_MAX:
        bad = int(np.argmax(cloud.labels > _LABEL_MAX))
        raise CloudFormatError(f"label out of range at point {bad}: the format "
                               "stores labels as int32")
    if format == "ascii":
        lines = [f"hexpc ascii {n} {c} {int(has_labels)}"]
        for i in range(n):
            parts = [np.format_float_positional(v, unique=True) for v in cols[i]]
            if has_labels:
                parts.append(str(int(cloud.labels[i])))
            lines.append(" ".join(parts))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif format == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<HQHB", _VERSION, n, c, int(has_labels)))
            if has_labels:
                rec = np.zeros(n, dtype=_record_dtype(c, True))
                rec["f"] = cols
                rec["label"] = cloud.labels.astype(np.int32)
                fh.write(rec.tobytes())
            else:
                fh.write(cols.tobytes())  # C order, whatever the layout
    else:
        raise ValueError(f"unknown format {format!r}")


def _record_dtype(c: int, has_labels: bool) -> np.dtype:
    if has_labels:
        return np.dtype([("f", "<f4", (c,)), ("label", "<i4")])
    return np.dtype([("f", "<f4", (c,))])


def load_pointcloud(path) -> PointCloud:
    """Read a cloud written by `save_pointcloud`, binary when it starts with
    the magic bytes and ASCII otherwise.

    Raises CloudFormatError naming the offending record on malformed input.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.strip():
        raise CloudFormatError("no records")
    if raw.startswith(_MAGIC):
        return _load_binary(raw)
    return _load_ascii(raw.decode("utf-8", errors="replace"))


def _finish_load(values: np.ndarray, labels: np.ndarray | None) -> PointCloud:
    # checked before the float64 cast, which warns on a signalling NaN
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise CloudFormatError(
            f"record {int(np.argwhere(bad)[0, 0])}: non-finite coordinate"
        )
    values = values.astype(np.float64)
    if labels is not None:
        labels = labels.astype(np.int64)
        bad = (labels < UNLABELED) | (labels > _LABEL_MAX)
        if bad.any():
            raise CloudFormatError(f"record {int(np.argwhere(bad)[0, 0])}: label out of range")
    feats = values[:, 3:] if values.shape[1] > 3 else None
    return PointCloud(positions=values[:, :3], features=feats, labels=labels)


def _load_ascii(text: str) -> PointCloud:
    lines = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise CloudFormatError("no records")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "hexpc" or header[1] != "ascii":
        raise CloudFormatError(f"malformed header: {lines[0]!r}")
    try:
        n, c, has_labels = int(header[2]), int(header[3]), int(header[4])
    except ValueError:
        raise CloudFormatError(f"malformed header: {lines[0]!r}") from None
    if c < 3 or has_labels not in (0, 1) or n < 0:
        raise CloudFormatError(f"malformed header: {lines[0]!r}")
    records = lines[1:]
    if len(records) != n:
        raise CloudFormatError(f"expected {n} records, got {len(records)}")
    if n == 0:
        raise CloudFormatError("no records")
    # every width is checked before the header's sizes are allocated
    width = c + has_labels
    records = [rec.split() for rec in records]
    for i, parts in enumerate(records):
        if len(parts) != width:
            raise CloudFormatError(
                f"record {i}: expected {width} columns, got {len(parts)}"
            )
    values = np.zeros((n, c), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64) if has_labels else None
    for i, parts in enumerate(records):
        try:
            values[i] = [float(p) for p in parts[:c]]
        except ValueError:
            raise CloudFormatError(f"record {i}: unparseable value") from None
        if has_labels:
            try:
                labels[i] = int(parts[c])
            except ValueError:
                raise CloudFormatError(f"record {i}: unparseable label") from None
            except OverflowError:  # beyond int64, so beyond the stored int32 too
                raise CloudFormatError(f"record {i}: label out of range") from None
    # canonicalize through the 32-bit storage type; a value beyond its range
    # becomes inf, which _finish_load rejects
    with np.errstate(over="ignore"):
        values = values.astype(np.float32)
    return _finish_load(values, labels)


def _load_binary(raw: bytes) -> PointCloud:
    head = len(_MAGIC) + struct.calcsize("<HQHB")
    if len(raw) < head or not raw.startswith(_MAGIC):
        raise CloudFormatError("malformed header: bad magic")
    version, n, c, has_labels = struct.unpack_from("<HQHB", raw, len(_MAGIC))
    if version != _VERSION:
        raise CloudFormatError(f"unsupported version {version}")
    if c < 3 or has_labels not in (0, 1):
        raise CloudFormatError("malformed header: bad field values")
    if n == 0:
        raise CloudFormatError("no records")
    dtype = _record_dtype(c, bool(has_labels))
    payload = raw[head:]
    if len(payload) < n * dtype.itemsize:
        got = len(payload) // dtype.itemsize
        raise CloudFormatError(f"truncated binary record at record {got}")
    if len(payload) > n * dtype.itemsize:
        raise CloudFormatError("trailing bytes after last record")
    rec = np.frombuffer(payload, dtype=dtype)
    labels = rec["label"] if has_labels else None
    return _finish_load(rec["f"], labels)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------


PRIMITIVE_KINDS = ("box", "cylinder")


class SceneError(ValueError):
    """Scene recipe that cannot be sampled. Built from field names and text
    in turn, field first, so that its message starts with the `SceneSpec`
    field to blame and `under(section)` can name each field as a key of a
    config section."""

    def __init__(self, *parts):
        super().__init__("".join(parts))
        self.parts = parts

    def under(self, section) -> str:
        return "".join(f"{section}.{part}" if i % 2 == 0 else part
                       for i, part in enumerate(self.parts))


@dataclass(frozen=True)
class Primitive:
    """Surface-sampled solid placed in a scene; `SceneSpec` checks it.

    kind "box": size = (sx, sy, sz), all six faces sampled.
    kind "cylinder": size = (radius, height), vertical axis; lateral surface
    and top disk sampled.
    """

    kind: str
    center: tuple[float, float, float]
    size: tuple[float, ...]
    class_id: int


@dataclass(frozen=True)
class SceneSpec:
    """Deterministic recipe for a synthetic labeled room scene.

    The room spans x in [-Lx/2, Lx/2], y in [-Ly/2, Ly/2], z in [0, Lz]
    with the sensor origin at (0, 0, 0) on the floor. Identical specs
    produce bit-identical clouds. A recipe that cannot be sampled, or whose
    points could lie farther from the origin than float64 measures, is
    refused here, by a SceneError naming the field to blame.
    """

    seed: int
    num_points: int
    num_classes: int
    room_extent: tuple[float, float, float] = (8.0, 8.0, 3.0)
    primitives: tuple[Primitive, ...] = ()
    floor_class: int = 0
    wall_class: int = 1
    noise: float = 0.01

    def __post_init__(self):
        if self.num_points < 1:
            raise SceneError("num_points", ": zero points requested")
        if self.num_classes < 2:
            raise SceneError("num_classes", ": need at least two classes")
        # a face's area is its edges' norms multiplied, which square each side;
        # apportion_counts divides by the areas' total
        room_area = _area_sum(_room_faces, self)
        if not math.isfinite(room_area):
            raise SceneError("room_extent", f": room {self.room_extent} has face areas "
                             "that overflow float64")
        if any(side < 0 for side in self.room_extent):
            raise SceneError("room_extent", f": room {self.room_extent} has a negative side")
        if room_area == 0.0:
            raise SceneError("room_extent", f": room {self.room_extent} has no face "
                             "with an area")
        for i, prim in enumerate(self.primitives):
            _check_primitive(prim, self.room_extent, f"primitives[{i}]")
        ids = [("floor_class", self.floor_class), ("wall_class", self.wall_class)]
        ids += [(f"primitives[{i}].class_id", p.class_id)
                for i, p in enumerate(self.primitives)]
        for name, cls in ids:
            if not 0 <= cls < self.num_classes:
                raise SceneError(name, f" must be a class id in [0, {self.num_classes})")
        classes = len(self.class_ids())
        if self.num_points < classes:
            raise SceneError("num_points", f": {self.num_points} points cannot cover "
                             f"{classes} classes")
        if not math.isfinite(_area_sum(scene_surfaces, self)):
            raise SceneError("primitives", ": the surfaces' areas sum past float64")
        if reach_overflows(self.room_extent, 0.0):
            raise SceneError("room_extent", f": room {self.room_extent} has a corner whose "
                             "distance from the origin overflows float64")
        if self.noise < 0:
            raise SceneError("noise", f" must be a non-negative number, got {self.noise:g}")
        if reach_overflows(self.room_extent, self.noise):
            raise SceneError("noise", f" {self.noise:g} can push a point's distance "
                             "past float64")

    def class_ids(self) -> tuple[int, ...]:
        ids = {self.floor_class, self.wall_class}
        ids.update(p.class_id for p in self.primitives)
        return tuple(sorted(ids))


def _check_primitive(prim: Primitive, room_extent, name):
    """Refuse `prim`, the recipe's field `name`, unless it is a known kind
    of positive size that lies inside the room."""
    if prim.kind not in PRIMITIVE_KINDS:
        raise SceneError(name, f": unknown primitive kind {prim.kind!r}; ", f"{name}.kind",
                         f" must be one of {', '.join(PRIMITIVE_KINDS)}")
    want = 3 if prim.kind == "box" else 2
    if len(prim.size) != want:
        raise SceneError(f"{name}.size", f": a {prim.kind} size must have {want} entries")
    if any(s <= 0 for s in prim.size):
        raise SceneError(f"{name}.size", ": primitive size components must be positive")
    lx, ly, lz = room_extent
    cx, cy, cz = prim.center
    if prim.kind == "box":
        hx, hy, hz = (s / 2 for s in prim.size)
    else:
        radius, height = prim.size
        hx = hy = radius
        hz = height / 2
    inside = (
        -lx / 2 <= cx - hx
        and cx + hx <= lx / 2
        and -ly / 2 <= cy - hy
        and cy + hy <= ly / 2
        and 0 <= cz - hz
        and cz + hz <= lz
    )
    if not inside:
        raise SceneError(name, f": primitive outside room {room_extent}: {prim}")


def _area_sum(surfaces, spec) -> float:
    """The areas of `surfaces(spec)` summed, inf where one or the sum
    overflows float64."""
    with np.errstate(over="ignore"):
        return float(np.sum([s.area for s in surfaces(spec)]))


class _Rect:
    """Axis-aligned rectangle: origin corner + two edge vectors + unit normal."""

    def __init__(self, origin, edge_a, edge_b, normal, class_id):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.edge_a = np.asarray(edge_a, dtype=np.float64)
        self.edge_b = np.asarray(edge_b, dtype=np.float64)
        self.normal = np.asarray(normal, dtype=np.float64)
        self.class_id = class_id
        self.area = np.linalg.norm(edge_a) * np.linalg.norm(edge_b)

    def sample(self, rng, count, noise):
        a = rng.uniform(0.0, 1.0, count)
        b = rng.uniform(0.0, 1.0, count)
        eps = _surface_noise(rng, count, noise)
        pts = (
            self.origin[None, :]
            + a[:, None] * self.edge_a[None, :]
            + b[:, None] * self.edge_b[None, :]
            + eps[:, None] * self.normal[None, :]
        )
        return pts


class _CylinderSide:
    def __init__(self, center, radius, height, class_id):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = radius
        self.height = height
        self.class_id = class_id
        self.area = 2.0 * math.pi * radius * height

    def sample(self, rng, count, noise):
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        h = rng.uniform(-0.5, 0.5, count) * self.height
        r = self.radius + _surface_noise(rng, count, noise)
        return np.stack(
            [
                self.center[0] + r * np.cos(theta),
                self.center[1] + r * np.sin(theta),
                self.center[2] + h,
            ],
            axis=1,
        )


class _Disk:
    def __init__(self, center, radius, z, class_id):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = radius
        self.z = z
        self.class_id = class_id
        self.area = math.pi * radius * radius

    def sample(self, rng, count, noise):
        r = self.radius * np.sqrt(rng.uniform(0.0, 1.0, count))
        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        eps = _surface_noise(rng, count, noise)
        return np.stack(
            [
                self.center[0] + r * np.cos(theta),
                self.center[1] + r * np.sin(theta),
                np.full(count, self.z) + eps,
            ],
            axis=1,
        )


def _surface_noise(rng, count, sigma):
    # truncated at one sigma so surface membership tests have a hard bound;
    # sigma 0 still draws, so the sequence stays stable, and -0.0 draws as 0.0
    sigma = abs(sigma)
    return np.clip(rng.normal(0.0, sigma, count), -sigma, sigma)


def _box_faces(prim: Primitive):
    cx, cy, cz = prim.center
    sx, sy, sz = prim.size
    x0, x1 = cx - sx / 2, cx + sx / 2
    y0, y1 = cy - sy / 2, cy + sy / 2
    z0, z1 = cz - sz / 2, cz + sz / 2
    c = prim.class_id
    return [
        _Rect((x0, y0, z0), (0, sy, 0), (0, 0, sz), (-1, 0, 0), c),
        _Rect((x1, y0, z0), (0, sy, 0), (0, 0, sz), (1, 0, 0), c),
        _Rect((x0, y0, z0), (sx, 0, 0), (0, 0, sz), (0, -1, 0), c),
        _Rect((x0, y1, z0), (sx, 0, 0), (0, 0, sz), (0, 1, 0), c),
        _Rect((x0, y0, z0), (sx, 0, 0), (0, sy, 0), (0, 0, -1), c),
        _Rect((x0, y0, z1), (sx, 0, 0), (0, sy, 0), (0, 0, 1), c),
    ]


def _room_faces(spec: SceneSpec):
    """The floor, then the four walls."""
    lx, ly, lz = spec.room_extent
    x0, x1 = -lx / 2, lx / 2
    y0, y1 = -ly / 2, ly / 2
    return [
        _Rect((x0, y0, 0), (lx, 0, 0), (0, ly, 0), (0, 0, 1), spec.floor_class),
        _Rect((x0, y0, 0), (lx, 0, 0), (0, 0, lz), (0, 1, 0), spec.wall_class),
        _Rect((x0, y1, 0), (lx, 0, 0), (0, 0, lz), (0, -1, 0), spec.wall_class),
        _Rect((x0, y0, 0), (0, ly, 0), (0, 0, lz), (1, 0, 0), spec.wall_class),
        _Rect((x1, y0, 0), (0, ly, 0), (0, 0, lz), (-1, 0, 0), spec.wall_class),
    ]


def scene_surfaces(spec: SceneSpec):
    """Sampling surfaces in their fixed order: floor, four walls, primitives."""
    surfaces = _room_faces(spec)
    for prim in spec.primitives:
        if prim.kind == "box":
            surfaces.extend(_box_faces(prim))
        else:
            radius, height = prim.size
            surfaces.append(
                _CylinderSide(prim.center, radius, height, prim.class_id)
            )
            surfaces.append(
                _Disk(
                    prim.center,
                    radius,
                    prim.center[2] + height / 2,
                    prim.class_id,
                )
            )
    return surfaces


def reach_overflows(room_extent, noise) -> bool:
    """Whether a point within `noise` of the room box can lie farther from the
    origin than float64 measures, squared as `PointCloud.depths` squares it."""
    lx, ly, lz = room_extent
    x, y, z = lx / 2 + noise, ly / 2 + noise, lz + noise
    return not math.isfinite((x * x + y * y) + z * z)


def apportion_counts(areas, total: int) -> np.ndarray:
    """Largest-remainder apportionment of `total` proportional to `areas`.

    Remainder points go to the largest fractional parts, ties broken by
    index order. Deterministic and RNG-free.
    """
    areas = np.asarray(areas, dtype=np.float64)
    quotas = areas / areas.sum() * total
    counts = np.floor(quotas).astype(np.int64)
    frac = quotas - counts
    order = np.lexsort((np.arange(len(areas)), -frac))
    counts[order[: total - counts.sum()]] += 1
    return counts


def sampling_plan(spec: SceneSpec):
    """(surface, count) pairs realizing `spec.num_points`.

    Counts come from area-proportional largest-remainder apportionment over
    `scene_surfaces(spec)`; afterwards any class left with zero points
    receives one, taken from the fullest surface whose class keeps at least
    one point.
    """
    surfaces = scene_surfaces(spec)
    classes = spec.class_ids()
    counts = apportion_counts([s.area for s in surfaces], spec.num_points)

    def class_totals():
        totals = {c: 0 for c in classes}
        for surf, cnt in zip(surfaces, counts):
            totals[surf.class_id] += int(cnt)
        return totals

    for cls in classes:
        totals = class_totals()
        if totals[cls] > 0:
            continue
        recipient = max(
            (i for i, s in enumerate(surfaces) if s.class_id == cls),
            key=lambda i: surfaces[i].area,
        )
        donor = max(
            (
                i
                for i, s in enumerate(surfaces)
                if totals[s.class_id] > 1 and counts[i] > 0
            ),
            key=lambda i: counts[i],
        )
        counts[donor] -= 1
        counts[recipient] += 1
    return list(zip(surfaces, counts.tolist()))


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Generate the labeled cloud described by `spec` (a pure function of it)."""
    plan = sampling_plan(spec)
    rng = np.random.default_rng(spec.seed)
    chunks, label_chunks = [], []
    for surf, count in plan:
        pts = surf.sample(rng, count, spec.noise)
        if count:
            chunks.append(pts)
            label_chunks.append(np.full(count, surf.class_id, dtype=np.int64))
    positions = np.concatenate(chunks, axis=0)
    labels = np.concatenate(label_chunks)
    return PointCloud(positions=positions, labels=labels)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def augment(
    cloud: PointCloud,
    flip_x: bool = False,
    flip_y: bool = False,
    rotate_z: float = 0.0,
) -> PointCloud:
    """Flip the named axes, then rotate about z. Labels/features carried as-is."""
    if not math.isfinite(rotate_z):
        raise ValueError("rotate_z must be finite")
    c, s = math.cos(rotate_z), math.sin(rotate_z)
    # the rotation's rows, a flipped axis's column negated: the same products
    # as flipping the coordinates first
    m = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if flip_x:
        m[:, 0] = -m[:, 0]
    if flip_y:
        m[:, 1] = -m[:, 1]
    axes = m @ cloud.axes
    axes.setflags(write=False)  # owned and read-only: the cloud needs no copy
    return PointCloud(positions=axes.T, features=cloud.features, labels=cloud.labels)


# ---------------------------------------------------------------------------
# Fixed test scenes
# ---------------------------------------------------------------------------


def make_occlusion_scene():
    """Fixed scene with two parallel walls hiding a box from the origin.

    Returns (cloud, info). Everything between the walls (box faces and the
    probe points) is occluded in the cylindrical view but visible from other
    directions. Probes are exact radial displacements of chosen front-wall
    points: probe = p * (1 + d/|p|), so the front-wall generator wins the
    probe's cylindrical pixel and the probe's offset there has norm d.

    info keys: "probe_indices", "generator_indices" (indices into the cloud),
    "displacement" (meters).
    """
    blocks, labels = [], []

    def add(points, class_id):
        start = sum(len(b) for b in blocks)
        blocks.append(np.asarray(points, dtype=np.float64))
        labels.append(np.full(len(points), class_id, dtype=np.int64))
        return np.arange(start, start + len(points))

    # floor ring around the sensor (class 0); angles offset from the axes
    radii = np.linspace(0.9, 4.2, 10)
    angles = np.linspace(0.0, 2.0 * math.pi, 44, endpoint=False) + 0.0137
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    floor = np.stack(
        [rr.ravel() * np.cos(aa.ravel()), rr.ravel() * np.sin(aa.ravel()),
         np.zeros(rr.size)], axis=1)
    add(floor, 0)

    # two walls at y = 2.0 (front) and y = 3.6 (back), class 1; grid offsets
    # keep points away from pixel boundaries
    xs = np.linspace(-2.0, 2.0, 41) + 0.0071
    zs = np.linspace(0.14, 2.26, 13) + 0.0053
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    wall = np.stack([gx.ravel(), np.zeros(gx.size), gz.ravel()], axis=1)
    front_idx = add(wall + [0.0, 2.0, 0.0], 1)
    add(wall + [0.0, 3.6, 0.0], 1)

    # box hidden between the walls (class 2), faces sampled as grids
    box = Primitive("box", center=(0.9, 2.8, 0.55), size=(0.8, 0.7, 1.1), class_id=2)
    t = np.linspace(0.08, 0.92, 8)
    ta, tb = np.meshgrid(t, t, indexing="ij")
    for face in _box_faces(box):
        pts = (
            face.origin[None, :]
            + ta.ravel()[:, None] * face.edge_a[None, :]
            + tb.ravel()[:, None] * face.edge_b[None, :]
        )
        add(pts, 2)

    # probes: every 9th front-wall point with a mid-height z, pushed 1.5 m
    # straight away from the origin (class 2)
    displacement = 1.5
    wall_pts = blocks[1]
    keep = np.where((wall_pts[:, 2] > 0.3) & (wall_pts[:, 2] < 1.8))[0][::9]
    generators = front_idx[keep]
    gen_pts = wall_pts[keep]
    norms = np.linalg.norm(gen_pts, axis=1)
    probes = gen_pts * (1.0 + displacement / norms)[:, None]
    probe_idx = add(probes, 2)

    cloud = PointCloud(
        positions=np.concatenate(blocks, axis=0),
        labels=np.concatenate(labels),
    )
    info = {
        "probe_indices": probe_idx,
        "generator_indices": generators,
        "displacement": displacement,
    }
    return cloud, info
