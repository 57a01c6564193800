"""Seeded bit-flip fuzz over the three binary containers.

Every single-bit corruption of a cloud `.bin`, a checkpoint or a projection
index sidecar must either load or raise the container's format error
(`CloudFormatError` for clouds, `ValueError` for the others), which the CLI
maps to exit code 1. Truncation at every offset is tested next to each
container's round trip.
"""

import numpy as np
import pytest

from hexplane.checkpoint import load_checkpoint, save_checkpoint
from hexplane.cloud import CloudFormatError, PointCloud, load_pointcloud, save_pointcloud
from hexplane.images import load_projection_index, save_projection_index
from hexplane.model import HexPlaneModel, ModelConfig
from hexplane.projection import (PLANE_KINDS, PlaneSpec, SensorConfig, hexplane_project,
                                 ortho_geometry)

FLIPS = 2000  # per container, drawn without replacement


def small_cloud():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-1.0, 1.0, size=(20, 3))
    positions[:, 2] += 1.5
    return PointCloud(positions=positions, labels=rng.integers(0, 3, size=20))


def write_cloud(path):
    save_pointcloud(path, small_cloud())


def write_checkpoint(path):
    model = HexPlaneModel(ModelConfig(num_classes=3, point_width=4, encoder_widths=(2, 3),
                                      feature_channels=4, heads=1, head_dim=2,
                                      fused_channels=4))
    save_checkpoint(path, model.parameters())


def write_index(path):
    # 20 points on 4x4 planes
    cloud = small_cloud()
    lo = cloud.positions.min(axis=0) - 0.05
    hi = cloud.positions.max(axis=0) + 0.05
    sensor = SensorConfig(phi_up=1.2, phi_down=0.6)
    specs = [PlaneSpec(kind, 4, 4, sensor=sensor) if kind == "cylindrical"
             else PlaneSpec(kind, 4, 4, *ortho_geometry(kind, lo, hi))
             for kind in PLANE_KINDS]
    save_projection_index(path, hexplane_project(cloud, specs))


CONTAINERS = {
    "cloud": (write_cloud, load_pointcloud, CloudFormatError),
    "checkpoint": (write_checkpoint, load_checkpoint, ValueError),
    "index": (write_index, load_projection_index, ValueError),
}


@pytest.mark.parametrize("name", list(CONTAINERS))
def test_every_bit_flip_loads_or_raises_format_error(tmp_path, name):
    write, load, format_error = CONTAINERS[name]
    path = tmp_path / "original"
    write(path)
    raw = path.read_bytes()
    load(path)
    rng = np.random.default_rng(7)
    bits = rng.choice(8 * len(raw), size=min(FLIPS, 8 * len(raw)), replace=False)
    flipped = tmp_path / "flipped"
    escaped = []
    with np.errstate(all="ignore"):
        for bit in bits.tolist():
            corrupt = bytearray(raw)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            flipped.write_bytes(bytes(corrupt))
            try:
                load(flipped)
            except format_error:
                pass
            except Exception as exc:
                escaped.append((bit, type(exc).__name__, str(exc)))
    assert not escaped, f"{len(escaped)} of {len(bits)} flips escaped: {escaped[:3]}"


def test_index_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "p.index.bin"
    write_index(path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_projection_index(path)
