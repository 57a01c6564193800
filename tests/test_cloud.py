"""Point-cloud I/O, synthetic scenes, and augmentation."""

import math
import struct
import warnings

import numpy as np
import pytest

from hexplane.cloud import (
    CloudFormatError,
    PointCloud,
    Primitive,
    SceneSpec,
    augment,
    default_features,
    load_pointcloud,
    make_occlusion_scene,
    save_pointcloud,
    scene_surfaces,
    synth_scene,
)
from hexplane.model import HexPlaneModel, ModelConfig


def random_cloud(rng, with_features=False, with_labels=False, n=None):
    n = n or int(rng.integers(1, 60))
    positions = rng.normal(size=(n, 3)) * 5
    features = None
    if with_features:
        features = rng.normal(size=(n, int(rng.integers(1, 4))))
    labels = None
    if with_labels:
        labels = rng.integers(-1, 5, size=n)
    return PointCloud(positions=positions, features=features, labels=labels)


class TestAsciiFormat:
    def test_three_point_file(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("hexpc ascii 3 3 1\n0 0 0 1\n1 0 0 1\n0 1 0 2\n")
        cloud = load_pointcloud(path, format="ascii")
        assert cloud.n == 3
        assert cloud.labels.tolist() == [1, 1, 2]
        assert cloud.positions[1].tolist() == [1.0, 0.0, 0.0]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# leading comment\nhexpc ascii 1 3 0\n\n0.5 1.5 -2 # trailing\n"
        )
        cloud = load_pointcloud(path)
        assert cloud.n == 1
        assert cloud.positions[0].tolist() == [0.5, 1.5, -2.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(CloudFormatError, match="no records"):
            load_pointcloud(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hexpc nonsense\n")
        with pytest.raises(CloudFormatError, match="header"):
            load_pointcloud(path, format="ascii")

    def test_non_finite_coordinate_names_record(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("hexpc ascii 2 3 0\n0 0 0\nnan 0 0\n")
        with pytest.raises(CloudFormatError, match="record 1"):
            load_pointcloud(path)

    def test_beyond_float32_is_format_error_without_warning(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("hexpc ascii 2 3 0\n1e39 0 0\n0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CloudFormatError, match="record 0: non-finite coordinate"):
                load_pointcloud(path, format="ascii")

    def test_label_out_of_range_names_record(self, tmp_path):
        path = tmp_path / "lbl.txt"
        path.write_text("hexpc ascii 2 3 1\n0 0 0 0\n1 1 1 -4\n")
        with pytest.raises(CloudFormatError, match="record 1.*label"):
            load_pointcloud(path)

    def test_wrong_column_count_names_record(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_text("hexpc ascii 1 4 0\n1 2 3\n")
        with pytest.raises(CloudFormatError, match="record 0"):
            load_pointcloud(path)

    def test_huge_column_count_is_format_error_before_allocation(self, tmp_path):
        # a 7 TiB record matrix must not be requested for a 3-column record
        path = tmp_path / "wide.txt"
        path.write_text("hexpc ascii 1 1000000000000 0\n1 2 3\n")
        with pytest.raises(CloudFormatError,
                           match="record 0: expected 1000000000000 columns, got 3"):
            load_pointcloud(path)

    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, with_features=True, with_labels=True)
        path = tmp_path / "rt.txt"
        save_pointcloud(path, cloud, format="ascii")
        back = load_pointcloud(path)
        assert np.array_equal(
            back.positions, cloud.positions.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(back.labels, cloud.labels)


class TestBinaryFormat:
    def test_round_trip_byte_identical(self, tmp_path):
        # save(load(f)) must reproduce the canonical bytes of f
        rng = np.random.default_rng(5)
        for trial in range(100):
            cloud = random_cloud(
                rng,
                with_features=bool(rng.integers(0, 2)),
                with_labels=bool(rng.integers(0, 2)),
            )
            first = tmp_path / f"a{trial}.bin"
            second = tmp_path / f"b{trial}.bin"
            save_pointcloud(first, cloud, format="binary")
            save_pointcloud(second, load_pointcloud(first), format="binary")
            assert first.read_bytes() == second.read_bytes()

    def test_truncated_record_names_index(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, n=10)
        path = tmp_path / "t.bin"
        save_pointcloud(path, cloud, format="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CloudFormatError, match="truncated.*record 9"):
            load_pointcloud(path)

    def test_signalling_nan_is_format_error_without_warning(self, tmp_path):
        path = tmp_path / "snan.bin"
        save_pointcloud(path, PointCloud(positions=np.ones((2, 3))), format="binary")
        raw = bytearray(path.read_bytes())
        raw[-12:-8] = struct.pack("<I", 0x7F800001)  # record 1's x: float32 sNaN
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CloudFormatError, match="record 1"):
                load_pointcloud(path)

    def test_sniffs_format(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, with_labels=True)
        bin_path = tmp_path / "x.bin"
        save_pointcloud(bin_path, cloud, format="binary")
        assert load_pointcloud(bin_path).n == cloud.n


class TestSynthScene:
    def make_spec(self, **kw):
        base = dict(
            seed=42,
            num_points=2000,
            num_classes=3,
            room_extent=(8.0, 8.0, 3.0),
            primitives=(
                Primitive("box", center=(2.0, -1.5, 0.5), size=(1.0, 1.2, 1.0), class_id=2),
                Primitive("cylinder", center=(-2.0, 2.0, 0.6), size=(0.5, 1.2), class_id=2),
            ),
        )
        base.update(kw)
        return SceneSpec(**base)

    def test_same_seed_bit_identical(self):
        spec = self.make_spec()
        a, b = synth_scene(spec), synth_scene(spec)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.labels, b.labels)

    def test_floor_points_within_noise_bound(self):
        cloud = synth_scene(self.make_spec())
        floor = cloud.positions[cloud.labels == 0]
        assert np.abs(floor[:, 2]).max() <= 0.01 + 1e-15

    def test_every_class_appears(self):
        cloud = synth_scene(self.make_spec())
        assert set(np.unique(cloud.labels)) == {0, 1, 2}

    def test_per_class_counts_match_independent_plan(self):
        # re-derive the area-proportional largest-remainder allocation from
        # the scene's raw geometry, without touching the generator's code path
        spec = self.make_spec()
        lx, ly, lz = spec.room_extent
        box, cyl = spec.primitives
        sx, sy, sz = box.size
        radius, height = cyl.size
        areas = [
            (lx * ly, 0),                      # floor
            (lx * lz, 1), (lx * lz, 1),        # y walls
            (ly * lz, 1), (ly * lz, 1),        # x walls
            (sy * sz, 2), (sy * sz, 2),        # box x faces
            (sx * sz, 2), (sx * sz, 2),        # box y faces
            (sx * sy, 2), (sx * sy, 2),        # box z faces
            (2 * math.pi * radius * height, 2),  # cylinder side
            (math.pi * radius**2, 2),          # cylinder top
        ]
        total_area = sum(a for a, _ in areas)
        quotas = [a / total_area * spec.num_points for a, _ in areas]
        counts = [math.floor(q) for q in quotas]
        rem = spec.num_points - sum(counts)
        order = sorted(range(len(areas)), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in order[:rem]:
            counts[i] += 1
        expected = {k: 0 for k in range(3)}
        for (area, cls), cnt in zip(areas, counts):
            expected[cls] += cnt

        cloud = synth_scene(spec)
        got = {k: int((cloud.labels == k).sum()) for k in range(3)}
        assert got == expected

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            SceneSpec(seed=0, num_points=0, num_classes=2)

    def test_primitive_outside_room_rejected(self):
        spec = self.make_spec(
            primitives=(Primitive("box", center=(5.0, 0, 0.5), size=(1, 1, 1), class_id=2),)
        )
        with pytest.raises(ValueError, match="outside room"):
            scene_surfaces(spec)


class TestAugment:
    def test_flip_x(self):
        cloud = PointCloud(positions=np.array([[1.0, 2.0, 3.0]]))
        out = augment(cloud, flip_x=True)
        assert out.positions[0].tolist() == [-1.0, 2.0, 3.0]

    def test_quarter_turn(self):
        cloud = PointCloud(positions=np.array([[1.0, 0.0, 0.0]]))
        out = augment(cloud, rotate_z=math.pi / 2)
        assert np.allclose(out.positions[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_rotation_preserves_norms(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(positions=rng.normal(size=(1000, 3)))
        out = augment(cloud, rotate_z=rng.uniform(0, 2 * math.pi))
        before = np.linalg.norm(cloud.positions, axis=1)
        after = np.linalg.norm(out.positions, axis=1)
        assert np.abs(before - after).max() < 1e-12

    def test_isometry_on_pairwise_distances(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(positions=rng.normal(size=(120, 3)) * 3)
        out = augment(cloud, flip_x=True, flip_y=True, rotate_z=1.234)
        diff = cloud.positions[:, None] - cloud.positions[None, :]
        before = np.linalg.norm(diff, axis=2)
        diff2 = out.positions[:, None] - out.positions[None, :]
        after = np.linalg.norm(diff2, axis=2)
        denom = np.maximum(before, 1e-30)
        assert (np.abs(after - before) / denom).max() < 1e-9

    def test_labels_features_carried(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, with_features=True, with_labels=True)
        out = augment(cloud, flip_y=True, rotate_z=0.5)
        assert out.n == cloud.n
        assert np.array_equal(out.labels, cloud.labels)
        assert np.array_equal(out.features, cloud.features)

    def test_file_features_follow_the_augmented_positions(self, tmp_path):
        # a loaded cloud stores its xyz once, so the model's input xyz rotates
        rng = np.random.default_rng(13)
        rows = [" ".join(f"{v:.3f}" for v in row) for row in rng.normal(size=(20, 5))]
        path = tmp_path / "extra.txt"
        path.write_text("\n".join(["hexpc ascii 20 5 0", *rows]) + "\n")
        cloud = load_pointcloud(path)
        out = augment(cloud, flip_x=True, rotate_z=0.7)
        feats = HexPlaneModel(ModelConfig(num_classes=2, point_channels=5)).input_features(out)
        assert np.array_equal(feats[:, :3], out.positions)
        assert np.array_equal(feats[:, 3:], cloud.features)

    def test_non_finite_angle_rejected(self):
        cloud = PointCloud(positions=np.zeros((1, 3)) + 1.0)
        with pytest.raises(ValueError):
            augment(cloud, rotate_z=math.inf)


class TestCloudInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(positions=np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        pos = np.array([[0.0, 0.0, np.inf]])
        with pytest.raises(ValueError, match="non-finite"):
            PointCloud(positions=pos)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(positions=np.ones((3, 3)), labels=np.zeros(2, dtype=int))

    def test_default_features(self):
        cloud = PointCloud(positions=np.array([[3.0, 4.0, 0.0]]))
        feats = default_features(cloud)
        assert feats.shape == (1, 4)
        assert feats[0, 3] == 5.0

    def test_positions_read_only(self):
        cloud = PointCloud(positions=np.ones((2, 3)))
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 2.0


def test_occlusion_scene_probe_geometry():
    cloud, info = make_occlusion_scene()
    probes = cloud.positions[info["probe_indices"]]
    gens = cloud.positions[info["generator_indices"]]
    # probes sit exactly `displacement` meters behind their generators
    # along the ray from the origin
    gaps = np.linalg.norm(probes - gens, axis=1)
    assert np.abs(gaps - info["displacement"]).max() < 1e-9
    cross = np.cross(probes, gens)
    assert np.abs(cross).max() < 1e-9  # collinear with the origin ray
    assert set(np.unique(cloud.labels)) == {0, 1, 2}
