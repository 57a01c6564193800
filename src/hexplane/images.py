"""Plane image export (PGM/PPM) and the binary projection-index sidecar.

Files are named `<stem>.<plane_kind>.<channel>.pgm` (depth, label) and
`<stem>.<plane_kind>.class.ppm` (false-color class map). The sidecar
`<stem>.index.bin` stores, per plane, the winner map, depth buffer, and the
per-point pixel table (little-endian):

    magic  b"HXPIDX\\0\\0"
    u16    version (= 1)
    u8     plane count
    u64    point count N
    per plane:
        u8   kind index, u32 H, u32 W
        i64  winner (H*W), f64 zbuffer (H*W)
        f64  u (N), f64 v (N), u8 in_fov (N)
"""

from __future__ import annotations

import colorsys
import struct
from pathlib import Path

import numpy as np

from .checkpoint import ByteReader
from .projection import PLANE_KINDS, HexPlaneSet

_IDX_MAGIC = b"HXPIDX\x00\x00"
_IDX_VERSION = 1


def _check_pgm_maxval(path, maxval) -> None:
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval must be in 1..65535, got {maxval}")


def write_pgm(path, image, maxval=65535) -> None:
    """Greyscale binary PGM; 8-bit when maxval < 256, else 16-bit big-endian."""
    _check_pgm_maxval(path, maxval)
    image = np.asarray(image)
    if image.min() < 0 or image.max() > maxval:
        raise ValueError("image values outside [0, maxval]")
    h, w = image.shape
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(image.astype(dtype).tobytes())


def write_ppm(path, rgb) -> None:
    """8-bit binary PPM from an (H, W, 3) uint8 array."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def depth_to_pgm_values(zbuffer, maxval=65535):
    """Quantize finite depths to 1..maxval (near = bright); empty pixels 0."""
    finite = np.isfinite(zbuffer)
    out = np.zeros(zbuffer.shape, dtype=np.int64)
    if finite.any():
        vals = zbuffer[finite]
        lo, hi = vals.min(), vals.max()
        span = hi - lo if hi > lo else 1.0
        out[finite] = maxval - np.floor((vals - lo) / span * (maxval - 1)).astype(np.int64)
    return out


def class_palette(num_classes):
    """Deterministic, well-separated RGB colors; index 0 is reserved black."""
    palette = np.zeros((num_classes + 1, 3), dtype=np.uint8)
    golden = 0.6180339887498949
    for k in range(num_classes):
        hue = (k * golden) % 1.0
        palette[k + 1] = [round(c * 255) for c in colorsys.hsv_to_rgb(hue, 0.75, 0.95)]
    return palette


def export_plane_images(out_dir, stem, hexset: HexPlaneSet, label_images=None,
                        num_classes=None):
    """Write depth PGMs, and label PGM/PPMs of `num_classes` classes, per plane.

    Returns the list of written paths. A class count past the 16-bit PGM
    range is refused before any file is written.
    """
    out_dir = Path(out_dir)
    if label_images is not None:
        maxval = max(num_classes, 1)
        _check_pgm_maxval(out_dir / f"{stem}.{hexset.planes[0].spec.kind}.label.pgm", maxval)
        palette = class_palette(num_classes)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for m, plane in enumerate(hexset.planes):
        kind = plane.spec.kind
        depth_path = out_dir / f"{stem}.{kind}.depth.pgm"
        write_pgm(depth_path, depth_to_pgm_values(plane.index.zbuffer))
        written.append(depth_path)
        if label_images is not None:
            labels = label_images[m]
            label_path = out_dir / f"{stem}.{kind}.label.pgm"
            write_pgm(label_path, labels + 1, maxval=maxval)  # 0 = empty
            written.append(label_path)
            ppm_path = out_dir / f"{stem}.{kind}.class.ppm"
            write_ppm(ppm_path, palette[labels + 1])
            written.append(ppm_path)
    return written


def save_projection_index(path, hexset: HexPlaneSet) -> None:
    n = hexset.planes[0].index.coords.u.shape[0]
    with open(path, "wb") as fh:
        fh.write(_IDX_MAGIC)
        fh.write(struct.pack("<HBQ", _IDX_VERSION, len(hexset.planes), n))
        for plane in hexset.planes:
            idx = plane.index
            h, w = idx.winner.shape
            fh.write(struct.pack("<BII", PLANE_KINDS.index(plane.spec.kind), h, w))
            fh.write(idx.winner.astype("<i8").tobytes())
            fh.write(idx.zbuffer.astype("<f8").tobytes())
            fh.write(idx.coords.u.astype("<f8").tobytes())
            fh.write(idx.coords.v.astype("<f8").tobytes())
            fh.write(idx.coords.in_fov.astype("u1").tobytes())


def load_projection_index(path):
    """Returns a list of per-plane dicts mirroring `save_projection_index`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_IDX_MAGIC):
        raise ValueError("not a projection index file (bad magic)")
    reader = ByteReader(raw, len(_IDX_MAGIC), "projection index")
    take = reader.take
    version, count, n = struct.unpack("<HBQ", take(11))
    if version != _IDX_VERSION:
        raise ValueError(f"unsupported index version {version}")
    planes = []
    for _ in range(count):
        kind_i, h, w = struct.unpack("<BII", take(9))
        if kind_i >= len(PLANE_KINDS):
            raise ValueError(f"unknown plane kind {kind_i} in projection index")
        planes.append(
            {
                "kind": PLANE_KINDS[kind_i],
                "winner": np.frombuffer(take(8 * h * w), "<i8").reshape(h, w).copy(),
                "zbuffer": np.frombuffer(take(8 * h * w), "<f8").reshape(h, w).copy(),
                "u": np.frombuffer(take(8 * n), "<f8").copy(),
                "v": np.frombuffer(take(8 * n), "<f8").copy(),
                "in_fov": np.frombuffer(take(n), "u1").astype(bool),
            }
        )
    if reader.offset != len(raw):
        raise ValueError("trailing bytes after last plane")
    return planes
