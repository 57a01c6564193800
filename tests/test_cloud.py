"""Point-cloud I/O, synthetic scenes, and augmentation."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

from hexplane import cloud as cloud_module
from hexplane.cloud import (
    CloudFormatError,
    PointCloud,
    Primitive,
    SceneError,
    SceneSpec,
    augment,
    default_features,
    load_pointcloud,
    make_occlusion_scene,
    save_pointcloud,
    synth_scene,
)
from hexplane.model import HexPlaneModel, ModelConfig
from hexplane.projection import auto_extent
from test_encoder import traced_peak


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
        cloud = load_pointcloud(path)
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
            load_pointcloud(path)

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
                load_pointcloud(path)

    def test_label_out_of_range_names_record(self, tmp_path):
        # labels are stored as int32; -1 marks an unlabelled point
        path = tmp_path / "lbl.txt"
        for label in ("-4", "2147483648", "99999999999999999999999"):
            path.write_text(f"hexpc ascii 2 3 1\n0 0 0 0\n1 1 1 {label}\n")
            with pytest.raises(CloudFormatError, match="record 1: label out of range"):
                load_pointcloud(path)
        path.write_text("hexpc ascii 2 3 1\n0 0 0 -1\n1 1 1 2147483647\n")
        assert load_pointcloud(path).labels.tolist() == [-1, 2**31 - 1]

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


# sha256 of the binary file of a 37-point cloud: labeled, unlabeled, and
# unlabeled with two feature columns
BINARY_DIGESTS = {
    "labeled": "7326b6f80f9fe9b1b18db9af390eed352cfc8c8f9d3882a0fac2e39ef8aba640",
    "unlabeled": "11e41084b7f4adfb731f6c2a10de546eb282808808143302d8e9fecdfa18d240",
    "features": "c94904f52a58340f89b8d9bfb85f8efa645deb67cea9945792154b0497b51768",
}


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

    @pytest.mark.parametrize("kind", list(BINARY_DIGESTS))
    def test_bytes_are_pinned(self, tmp_path, kind):
        # the round trip above runs both sides through the writer, so it
        # cannot see a byte the writer changes; these pins can
        rng = np.random.default_rng(12)
        n = 37
        cloud = PointCloud(
            positions=rng.normal(size=(n, 3)) * 5,
            features=rng.normal(size=(n, 2)) if kind == "features" else None,
            labels=rng.integers(-1, 5, size=n) if kind == "labeled" else None)
        path = tmp_path / f"{kind}.bin"
        save_pointcloud(path, cloud, format="binary")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == BINARY_DIGESTS[kind], f"measured {digest}"

    def test_truncated_record_names_index(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, n=10)
        path = tmp_path / "t.bin"
        save_pointcloud(path, cloud, format="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CloudFormatError, match="truncated.*record 9"):
            load_pointcloud(path)

    def test_trailing_bytes_are_not_called_a_truncated_record(self, tmp_path):
        # a payload longer than its records read "truncated ... at record 10"
        path = tmp_path / "t.bin"
        save_pointcloud(path, random_cloud(np.random.default_rng(3), n=10), format="binary")
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(CloudFormatError, match="^trailing bytes after last record$"):
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


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
@pytest.mark.parametrize("label", [2**31, 2**32 - 1, 2**32 + 5])
def test_save_refuses_a_label_past_int32_before_writing(tmp_path, fmt, label):
    # binary used to wrap these (2**32 - 1 read back as -1, unlabeled) and
    # ASCII wrote a file that load_pointcloud refuses
    cloud = PointCloud(positions=np.ones((3, 3)), labels=[0, label, label])
    path = tmp_path / "c"
    with pytest.raises(CloudFormatError, match="^label out of range at point 1:"):
        save_pointcloud(path, cloud, format=fmt)
    assert not path.exists()
    save_pointcloud(path, PointCloud(np.ones((2, 3)), labels=[-1, 2**31 - 1]), format=fmt)
    assert load_pointcloud(path).labels.tolist() == [-1, 2**31 - 1]


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
@pytest.mark.parametrize("position, features", [
    ([1e39, 0, 0], None),
    ([0, 0, -1e39], None),
    ([0, 0, 0], [[0.0], [4e38]]),
    ([0, 0, 0], [[0.0], [-4e38]]),
])
def test_save_refuses_a_value_past_float32_before_writing(tmp_path, fmt, position, features):
    # the float32 cast used to warn and write an inf that load_pointcloud
    # refuses as a non-finite coordinate; a NaN feature never gets here, as
    # PointCloud refuses it
    cloud = PointCloud([[0, 0, 0], position], features=features)
    path = tmp_path / "c"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CloudFormatError, match="^value at point 1 is not a finite float32"):
            save_pointcloud(path, cloud, format=fmt)
    assert not path.exists()


BOX = Primitive("box", center=(2.0, -1.5, 0.5), size=(1.0, 1.2, 1.0), class_id=2)


class TestSynthScene:
    def make_spec(self, **kw):
        base = dict(
            seed=42,
            num_points=2000,
            num_classes=3,
            room_extent=(8.0, 8.0, 3.0),
            primitives=(
                BOX,
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
        box = Primitive("box", center=(5.0, 0, 0.5), size=(1, 1, 1), class_id=2)
        with pytest.raises(ValueError, match="outside room"):
            self.make_spec(primitives=(box,))

    @pytest.mark.parametrize("room", [(1e300, 8.0, 3.0), (8.0, -1.4e154, 3.0),
                                      (1e154, 1e154, 1e154)])
    def test_room_whose_face_areas_overflow_rejected(self, room):
        # a side squared, or the sum of the face areas, overflows float64;
        # these used to sample through overflow and NaN-cast warnings
        with pytest.raises(ValueError, match="face areas that overflow"):
            self.make_spec(room_extent=room)

    def test_primitive_areas_that_overflow_rejected(self):
        # the room's faces sum inside float64 but the cylinder's side does
        # not; this used to warn from apportion_counts' areas.sum()
        cyl = Primitive("cylinder", center=(0.0, 0.0, 2.5e153), size=(2.5e153, 5.0e153),
                        class_id=2)
        with pytest.raises(ValueError, match="areas sum past float64"):
            self.make_spec(room_extent=(5.0e153,) * 3, primitives=(cyl,))

    @pytest.mark.parametrize("change,field", [
        ({"num_points": 0}, "num_points: "),
        ({"num_classes": 1}, "num_classes: "),
        ({"room_extent": (1e300, 8.0, 3.0)}, "room_extent: "),
        ({"room_extent": (0.0, 0.0, 0.0)}, "room_extent: "),
        ({"primitives": (Primitive("sphere", (0, 0, 1), (1,), 2),)}, "primitives[0]: "),
        ({"primitives": (BOX, Primitive("box", (0, 0, 1), (1, 1), 2))}, "primitives[1].size: "),
        ({"primitives": (Primitive("cylinder", (0, 0, 1), (1, 0), 2),)},
         "primitives[0].size: "),
        ({"primitives": (Primitive("box", (5, 0, 1), (1, 1, 1), 2),)}, "primitives[0]: "),
        ({"floor_class": 3}, "floor_class must be a class id in [0, 3)"),
        ({"wall_class": -1}, "wall_class must be a class id in [0, 3)"),
        ({"primitives": (BOX, Primitive("box", (0, 0, 1), (1, 1, 1), 3))},
         "primitives[1].class_id must be a class id in [0, 3)"),
        ({"num_points": 2}, "num_points: 2 points cannot cover 3 classes"),
        ({"room_extent": (5.0e153,) * 3, "primitives": (
            Primitive("cylinder", (0, 0, 2.5e153), (2.5e153, 5.0e153), 2),)}, "primitives: "),
        # numpy used to refuse this one mid-sample, with "scale < 0"
        ({"noise": -1.0}, "noise must be a non-negative number, got -1"),
    ])
    def test_each_refusal_starts_with_the_field_to_blame(self, change, field):
        with pytest.raises(SceneError) as caught:
            self.make_spec(**change)
        assert str(caught.value).startswith(field)


    @pytest.mark.parametrize("seed,digest", [(0, "151db377b9f1"), (1, "7fb778cbc766"),
                                             (2, "a5c8b5479376")])
    @pytest.mark.parametrize("noise", [0.0, -0.0])
    def test_noiseless_scenes_keep_their_bytes(self, seed, digest, noise):
        # zero noise still draws its normals, so the rest of the sequence and
        # every position keep their bytes; -0.0 samples as 0.0 does
        spec = SceneSpec(seed=seed, num_points=3000, num_classes=3, noise=noise, primitives=(
            Primitive("box", (1.0, 1.0, 0.5), (1.0, 1.0, 1.0), 2),
            Primitive("cylinder", (-1.0, -1.0, 0.5), (0.4, 1.0), 2)))
        positions = synth_scene(spec).positions
        assert hashlib.sha256(positions.tobytes()).hexdigest()[:12] == digest


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

    @pytest.mark.parametrize("flip_x,flip_y", [(False, False), (True, False),
                                               (False, True), (True, True)])
    def test_flips_then_rotation_match_the_row_formula_bitwise(self, flip_x, flip_y):
        # the flips are folded into the rotation's columns: the same products,
        # so the same bits as flipping each point, then rotating it
        pos = np.random.default_rng(15).normal(size=(2000, 3)) * 4
        out = augment(PointCloud(positions=pos), flip_x=flip_x, flip_y=flip_y, rotate_z=0.83)
        flipped = pos * [-1.0 if flip_x else 1.0, -1.0 if flip_y else 1.0, 1.0]
        c, s = math.cos(0.83), math.sin(0.83)
        want = flipped @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T
        assert out.positions.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("value, row", [(np.nan, 1), (np.inf, 2), (-np.inf, 4)])
    def test_rejects_a_non_finite_feature(self, value, row):
        # such a feature would reach the model and make its cell's logits NaN
        feats = np.ones((5, 2))
        feats[row, 1] = value
        with pytest.raises(ValueError) as caught:
            PointCloud(positions=np.zeros((5, 3)), features=feats)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"non-finite feature at point {row}"

    def test_rejects_a_distance_that_overflows(self):
        # each coordinate is finite but the squared distance is not; the check
        # itself warns of no overflow (warnings are errors here)
        pos = np.array([[1.0, 2.0, 3.0], [0.0, 1.5e308, 0.0]])
        with pytest.raises(ValueError, match="point 1 is too far from the origin"):
            PointCloud(positions=pos)
        assert np.isfinite(PointCloud(positions=np.full((1, 3), 1e153)).depths).all()

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(positions=np.ones((3, 3)), labels=np.zeros(2, dtype=int))

    def test_default_features(self):
        cloud = PointCloud(positions=np.array([[3.0, 4.0, 0.0]]))
        feats = default_features(cloud)
        assert feats.shape == (1, 4)
        assert feats[0, 3] == 5.0

    def test_depths_match_linalg_norm_bit_for_bit(self):
        # coordinates of mixed sign and magnitude from 1e-3 to 1e3
        rng = np.random.default_rng(32)
        shape = (300_000, 3)
        pos = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        cloud = PointCloud(positions=pos)
        assert cloud.depths.tobytes() == np.linalg.norm(pos, axis=1).tobytes()

    def test_depths_computed_once_and_read_only(self):
        rng = np.random.default_rng(33)
        cloud = PointCloud(positions=rng.uniform(-4, 4, size=(500, 3)))
        depths = cloud.depths
        assert cloud.depths is depths  # the same array on every access
        assert depths.tobytes() == np.linalg.norm(cloud.positions, axis=1).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            depths[0] = 1.0
        assert default_features(cloud)[:, 3].tobytes() == depths.tobytes()

    def test_positions_read_only(self):
        cloud = PointCloud(positions=np.ones((2, 3)))
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 2.0

    def test_coordinates_stored_once_axis_major(self):
        pos = np.random.default_rng(34).normal(size=(50, 3))
        cloud = PointCloud(positions=pos)
        axes = cloud.axes
        assert axes.shape == (3, 50) and axes.flags.c_contiguous and not axes.flags.writeable
        assert np.shares_memory(cloud.positions, axes)
        assert cloud.positions.flags.f_contiguous and not cloud.positions.flags.writeable
        assert cloud.positions.tobytes() == pos.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            axes[0, 0] = 1.0
        # a cloud built from another's positions shares its read-only axes
        assert PointCloud(positions=cloud.positions).axes.base is axes

    def test_a_large_cloud_keeps_one_copy_and_auto_extent_none(self):
        n = 100_000
        pos = np.random.default_rng(35).uniform(-4, 4, size=(n, 3))
        with traced_peak() as built:
            cloud = PointCloud(positions=pos)
        with traced_peak() as extent:
            auto_extent(cloud)
        stored = 3 * n * 8 + n * 8  # the (3, N) axes plus depths
        assert stored <= built.held < stored + 4096, f"held {built.held} B"
        assert extent.peak < 4096, f"traced peak {extent.peak} B"  # no (3, N) transposed copy

    def test_caller_arrays_stay_writable_and_unshared(self):
        # contiguous arrays of the right dtype, so np.ascontiguousarray hands
        # back the caller's own objects
        pos, feats, labels = np.zeros((3, 3)), np.ones((3, 2)), np.zeros(3, dtype=np.int64)
        base = np.zeros((4, 3))
        view = base[1:]
        view.setflags(write=False)  # a read-only view of a writable array
        cloud = PointCloud(positions=pos, features=feats, labels=labels)
        pos[0, 0], feats[0, 0], labels[0] = 5.0, 5.0, 5
        assert cloud.positions[0, 0] == 0.0 and cloud.features[0, 0] == 1.0
        assert cloud.labels[0] == 0
        from_view = PointCloud(positions=view)
        base[1, 0] = 5.0
        assert from_view.positions[0, 0] == 0.0
        # an F-ordered read-only view whose transpose is the writable owner
        rows = np.zeros((3, 4))
        columns = rows.T
        columns.setflags(write=False)
        from_columns = PointCloud(positions=columns)
        rows[0, 0] = 5.0
        assert from_columns.positions[0, 0] == 0.0
        for arr in (cloud.positions, cloud.features, cloud.labels, from_view.positions,
                    from_columns.positions):
            assert not arr.flags.writeable

    def test_equality_and_hash_are_identity(self):
        pos = np.ones((2, 3))
        a, b = PointCloud(positions=pos), PointCloud(positions=pos)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_augment_keeps_its_arrays_without_a_copy(self, monkeypatch):
        # the train loop builds one augmented cloud per step
        cloud = random_cloud(np.random.default_rng(14), with_features=True, with_labels=True)
        kept = []
        frozen = cloud_module._frozen

        def spy(value, dtype):
            arr = frozen(value, dtype)
            kept.append(arr is value)
            return arr

        monkeypatch.setattr(cloud_module, "_frozen", spy)
        out = augment(cloud, flip_x=True, rotate_z=0.3)
        assert kept == [True, True, True]
        assert out.features is cloud.features and out.labels is cloud.labels
        assert not out.positions.flags.writeable


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
