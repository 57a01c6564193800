"""Six-plane view projection: grid mapping, z-buffered rasterization, and
point/pixel association tables.

Plane order is fixed everywhere: xy_top, xz_front, xz_back, yz_left,
yz_right, cylindrical.  Orthographic planes map two world axes affinely onto
the pixel grid (edges right-exclusive) and measure depth along the viewing
direction; the cylindrical plane maps azimuth/elevation like a spinning
range sensor parked at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, UNLABELED

PLANE_KINDS = (
    "xy_top",
    "xz_front",
    "xz_back",
    "yz_left",
    "yz_right",
    "cylindrical",
)

EMPTY = -1

DEFAULT_CHANNELS = ("x", "y", "z", "depth", "occupancy")

# per orthographic kind: (u axis, v axis, depth axis, depth sign)
# depth = sign * (coord - depth_ref) grows away from the camera, so the
# minimum depth at a pixel is the nearest point.
_ORTHO_AXES = {
    "xy_top": (0, 1, 2, -1.0),    # viewed from above, along -z
    "xz_front": (0, 2, 1, -1.0),  # viewed from +y, along -y
    "xz_back": (0, 2, 1, 1.0),    # viewed from -y, along +y
    "yz_left": (1, 2, 0, 1.0),    # viewed from -x, along +x
    "yz_right": (1, 2, 0, -1.0),  # viewed from +x, along -x
}


@dataclass(frozen=True)
class SensorConfig:
    """Vertical field of view of the cylindrical projection.

    phi_up and phi_down are the magnitudes (radians, > 0) of the upward and
    downward inclination limits; their sum is the total vertical FOV. The
    grid size is the plane's.
    """

    phi_up: float
    phi_down: float

    def __post_init__(self):
        if not (self.phi_up > 0 and self.phi_down > 0):
            raise ValueError("phi_up and phi_down must be positive magnitudes")

    @property
    def xi(self) -> float:
        """Total vertical field of view in radians."""
        return self.phi_up + self.phi_down


@dataclass(frozen=True)
class PlaneSpec:
    """One projection plane: kind, resolution, and its geometric mapping.

    Orthographic kinds carry `extent` = (u_min, u_max, v_min, v_max) world
    bounds of the two in-plane axes plus `depth_ref`, the world coordinate
    of the viewing plane along the depth axis.  The cylindrical kind carries
    `sensor` instead.
    """

    kind: str
    height: int
    width: int
    extent: tuple[float, float, float, float] | None = None
    depth_ref: float | None = None
    sensor: SensorConfig | None = None

    def __post_init__(self):
        if self.kind not in PLANE_KINDS:
            raise ValueError(f"unknown plane kind {self.kind!r}")
        if self.kind == "cylindrical":
            if self.sensor is None or self.extent is not None:
                raise ValueError("cylindrical plane needs a sensor, not an extent")
        else:
            if self.extent is None or self.sensor is not None:
                raise ValueError(f"{self.kind} plane needs an extent, not a sensor")
            u0, u1, v0, v1 = self.extent
            if not (u1 > u0 and v1 > v0):
                raise ValueError(f"degenerate extent {self.extent}")
            if self.depth_ref is None:
                raise ValueError("orthographic plane needs depth_ref")
        if self.height < 1 or self.width < 1:
            raise ValueError("grid must be at least 1x1")


@dataclass(frozen=True)
class GridCoords:
    """Continuous grid coordinates of every point on one plane.

    Every array is (N,), in point order. u: column, v: row, both in
    [0, W) x [0, H) when in_fov, else unconstrained (NaN or +-inf); depth is
    the distance along the viewing direction; pixel is the flat pixel,
    row * W + column, in FOV, and the discard pixel H * W out of it.
    """

    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    in_fov: np.ndarray
    pixel: np.ndarray


@dataclass(frozen=True)
class ProjectionIndex:
    """Raster-side association tables of one plane.

    winner:  (H, W) index of the nearest in-FOV point per pixel, EMPTY if none.
    zbuffer: (H, W) winning depth, +inf for empty pixels.
    coords:  the per-point GridCoords the tables were built from.
    """

    winner: np.ndarray
    zbuffer: np.ndarray
    coords: GridCoords


@dataclass(frozen=True)
class PlaneData:
    spec: PlaneSpec
    raster: np.ndarray  # (H, W, D)
    index: ProjectionIndex


@dataclass(frozen=True)
class HexPlaneSet:
    """The six rasterized planes of one cloud, in the fixed plane order."""

    planes: tuple[PlaneData, ...]

    def __post_init__(self):
        kinds = tuple(p.spec.kind for p in self.planes)
        if kinds != PLANE_KINDS:
            raise ValueError(f"planes must be exactly {PLANE_KINDS}, got {kinds}")


def project_cylindrical(cloud: PointCloud, plane: PlaneSpec) -> GridCoords:
    """Map points to the range-image grid of a cylindrical plane.

    u = (1/2) * (1 - atan2(y, x)/pi) * W
    v = (1 - (asin(z/d) + phi_down)/xi) * H,  d = sqrt(x^2 + y^2 + z^2)

    Points outside the vertical FOV are masked. The bottom FOV boundary is
    inclusive: elevation exactly -phi_down lands on the last row (v is
    nudged just below H so the floored pixel stays in range).
    """
    x, y, z = cloud.axes
    d = cloud.depths
    if np.any(d == 0.0):
        bad = int(np.argwhere(d == 0.0)[0, 0])
        raise ValueError(f"point {bad} at the projection origin (zero depth)")
    sensor, h, w = plane.sensor, plane.height, plane.width

    az = np.arctan2(y, x)
    np.copyto(az, np.pi, where=az == -np.pi)  # the seam is one direction, not two
    u = 0.5 * (1.0 - az / np.pi) * w
    np.copyto(u, np.nextafter(float(w), 0.0), where=u == w)

    elev = np.arcsin(z / d)
    v = (1.0 - (elev + sensor.phi_down) / sensor.xi) * h
    in_fov = (elev >= -sensor.phi_down) & (elev <= sensor.phi_up)
    np.copyto(v, np.nextafter(float(h), 0.0), where=in_fov & (v == h))
    in_fov &= (u >= 0) & (u < w) & (v >= 0) & (v < h)
    return GridCoords(u=u, v=v, depth=d, in_fov=in_fov, pixel=_pixels(u, v, in_fov, h, w))


def _pixels(u, v, in_fov, height, width):
    """Flat pixel, row * width + column, of every point: in FOV u and v are
    >= 0, so truncation is the floor; out of it their cast may be invalid
    (NaN, +-inf) and gives way to the discard pixel height * width."""
    with np.errstate(invalid="ignore"):
        pixel = v.astype(np.int64)
        pixel *= width
        pixel += u.astype(np.int64)
    pixel[~in_fov] = height * width
    return pixel


def project_orthographic(cloud: PointCloud, plane: PlaneSpec, grids=None) -> GridCoords:
    """Affine map of two world axes onto the grid; depth along the view axis.

    `grids` keeps the read-only (u, v, in_fov, pixel) of the cloud for each
    (in-plane axes, extent, size) it has seen, so opposite views share them.
    """
    if plane.kind not in _ORTHO_AXES:
        raise ValueError(f"{plane.kind} is not an orthographic plane")
    ua, va, da, sign = _ORTHO_AXES[plane.kind]
    h, w = plane.height, plane.width
    grids = {} if grids is None else grids
    key = (ua, va, plane.extent, h, w)
    if key not in grids:
        u0, u1, v0, v1 = plane.extent
        with np.errstate(over="ignore"):  # only a point far out of FOV overflows
            u = (cloud.axes[ua] - u0) / (u1 - u0) * w
            v = (cloud.axes[va] - v0) / (v1 - v0) * h
        in_fov = (u >= 0) & (u < w) & (v >= 0) & (v < h)
        grids[key] = (u, v, in_fov, _pixels(u, v, in_fov, h, w))
        for array in grids[key]:
            array.flags.writeable = False
    u, v, in_fov, pixel = grids[key]
    depth = sign * (cloud.axes[da] - plane.depth_ref)
    return GridCoords(u=u, v=v, depth=depth, in_fov=in_fov, pixel=pixel)


def project(cloud: PointCloud, plane: PlaneSpec, grids=None) -> GridCoords:
    if plane.kind == "cylindrical":
        return project_cylindrical(cloud, plane)
    return project_orthographic(cloud, plane, grids)


def rasterize(cloud, coords, plane, channels=DEFAULT_CHANNELS):
    """Z-buffered point splatting; returns (raster, ProjectionIndex).

    Per pixel the in-FOV point of minimum depth wins, ties going to the
    lowest point index; raster channels are taken from the winner, empty
    pixels stay zero.
    """
    if coords.u.shape[0] != cloud.n:
        raise ValueError("coords/cloud length mismatch")
    h, w = plane.height, plane.width
    pix, depth = coords.pixel, coords.depth
    # two scatter-mins over the h * w pixels and the discard pixel, which
    # takes every point out of FOV and is dropped: the nearest depth per
    # pixel, then the lowest point index among the points at that depth
    zflat = np.full(h * w + 1, np.inf)
    np.minimum.at(zflat, pix, depth)
    tie = np.flatnonzero(depth == zflat[pix])
    none = np.iinfo(np.int64).max
    wflat = np.full(h * w + 1, none)
    np.minimum.at(wflat, pix[tie], tie)
    winner, zbuffer = wflat[:-1].reshape(h, w), zflat[:-1].reshape(h, w)
    occupied = winner != none
    win = winner[occupied]
    zbuffer[occupied] = depth[win]  # the winner's own depth keeps the sign of a zero depth
    winner[~occupied] = EMPTY

    raster = np.zeros((h, w, len(channels)), dtype=np.float64)
    for ci, name in enumerate(channels):
        plate = raster[:, :, ci]
        if name == "occupancy":
            plate[occupied] = 1.0
        elif name in ("x", "y", "z"):
            plate[occupied] = cloud.axes["xyz".index(name)][win]
        elif name == "depth":
            plate[occupied] = zbuffer[occupied]
        else:
            raise ValueError(f"unknown raster channel {name!r}")
    index = ProjectionIndex(winner=winner, zbuffer=zbuffer, coords=coords)
    return raster, index


def hexplane_project(cloud, specs, channels=DEFAULT_CHANNELS, threads=1):
    """Project and rasterize the cloud onto all six planes.

    `specs` holds one PlaneSpec per kind in PLANE_KINDS order; HexPlaneSet
    rejects any other. Planes are processed one after another; `threads` is
    accepted and ignored. Opposite views of one extent and size share one
    read-only (u, v, in_fov, pixel) grid and differ only in depth.
    """
    grids = {}
    return HexPlaneSet(planes=tuple(
        PlaneData(s, *rasterize(cloud, project(cloud, s, grids), s, channels)) for s in specs))


def winner_table(cloud: PointCloud, hexset: HexPlaneSet):
    """(N, 6) index of the winner of each point's pixel on each plane. A
    point out of FOV stands as its own winner, so its offset is x - x = +0.0
    (positions are finite)."""
    n = cloud.n
    own = np.arange(n)
    winners = np.empty((n, len(hexset.planes)), dtype=np.int64)
    for m, plane in enumerate(hexset.planes):
        coords = plane.index.coords
        if coords.u.shape[0] != n:
            raise ValueError("hexplane set built from a different cloud")
        # the discard pixel clips to the last real one, whose winner the
        # point's own index then replaces
        won = plane.index.winner.take(coords.pixel, mode="clip")
        winners[:, m] = np.where(coords.in_fov, won, own)
    return winners


def gather_offsets(cloud: PointCloud, winners, rows):
    """Displacement (B, 6, 3) from each point in `rows` to the winner of its
    pixel on each plane, from the `winner_table` of the cloud. A point that
    wins its own pixel, or is out of FOV, has an exactly zero offset.
    """
    win = winners[rows]
    offsets = np.empty(win.shape + (3,))
    for axis, row in enumerate(cloud.axes):
        np.subtract(row[rows, None], row[win], out=offsets[:, :, axis])
    return offsets


def rasterize_labels(cloud: PointCloud, hexset: HexPlaneSet):
    """Per-plane label images: winner's label, UNLABELED where empty."""
    if cloud.labels is None:
        raise ValueError("cannot rasterize labels of an unlabeled cloud")
    images = []
    for plane in hexset.planes:
        winner = plane.index.winner
        img = np.full(winner.shape, UNLABELED, dtype=np.int64)
        occupied = winner >= 0
        img[occupied] = cloud.labels[winner[occupied]]
        images.append(img)
    return images


# ---------------------------------------------------------------------------
# Default plane specifications
# ---------------------------------------------------------------------------

DEFAULT_SENSOR = SensorConfig(phi_up=math.radians(45.0), phi_down=math.radians(30.0))
MARGIN_FRAC = 0.01  # `auto_extent`'s pad per side, as a share of the box size

DEFAULT_RESOLUTIONS = {
    "xy_top": (256, 256),
    "xz_front": (64, 512),
    "xz_back": (64, 512),
    "yz_left": (64, 512),
    "yz_right": (64, 512),
    "cylindrical": (64, 512),
}


def auto_extent(cloud: PointCloud):
    """Padded bounding box of the cloud, (min, max) per axis.

    The pad keeps boundary points strictly inside the right-exclusive grid
    so every point is in FOV on the top view.
    """
    lo = cloud.axes.min(axis=1)
    hi = cloud.axes.max(axis=1)
    pad = np.maximum((hi - lo) * MARGIN_FRAC, 1e-6)
    return lo - pad, hi + pad


def ortho_geometry(kind: str, lo, hi):
    """(extent, depth_ref) of an orthographic plane covering the box [lo, hi].

    The extent spans the kind's two in-plane axes; the viewing plane sits on
    the box face the camera looks from, so depth is never negative.
    """
    ua, va, da, sign = _ORTHO_AXES[kind]
    extent = (float(lo[ua]), float(hi[ua]), float(lo[va]), float(hi[va]))
    return extent, float(hi[da] if sign < 0 else lo[da])


def default_plane_specs(cloud: PointCloud, sensor: SensorConfig = DEFAULT_SENSOR,
                        resolutions: dict | None = None):
    """Six PlaneSpec covering the cloud's padded bounding box."""
    res = {**DEFAULT_RESOLUTIONS, **(resolutions or {})}
    lo, hi = auto_extent(cloud)
    return [PlaneSpec(kind, *res[kind], sensor=sensor) if kind == "cylindrical"
            else PlaneSpec(kind, *res[kind], *ortho_geometry(kind, lo, hi))
            for kind in PLANE_KINDS]
