"""View projection: grid mapping, z-buffer, offsets, and label rasters."""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracles
from hexplane import config as cfg
from hexplane.attention import encode_points, init_point_encoder, voxel_pool
from hexplane.cloud import PointCloud, default_features, make_occlusion_scene
from hexplane.images import load_projection_index, save_projection_index
from hexplane.projection import (
    EMPTY,
    PLANE_KINDS,
    PlaneSpec,
    SensorConfig,
    auto_extent,
    default_plane_specs,
    gather_offsets,
    hexplane_project,
    project,
    project_cylindrical,
    project_orthographic,
    rasterize,
    rasterize_labels,
    winner_table,
)

KITTI_SENSOR = SensorConfig(phi_up=math.radians(3.0), phi_down=math.radians(25.0))
KITTI = PlaneSpec("cylindrical", 64, 512, sensor=KITTI_SENSOR)

WIDE_SENSOR = SensorConfig(phi_up=math.radians(60.0), phi_down=math.radians(35.0))
WIDE = PlaneSpec("cylindrical", 64, 512, sensor=WIDE_SENSOR)


def random_cloud(rng, n=500, labeled=True):
    positions = rng.uniform(-4, 4, size=(n, 3))
    positions[:, 2] = rng.uniform(0.1, 3.0, size=n)
    labels = rng.integers(0, 4, size=n) if labeled else None
    return PointCloud(positions=positions, labels=labels)


class TestCylindricalProjection:
    def test_positive_x_axis_hits_center_column(self):
        cloud = PointCloud(positions=np.array([[1.0, 0.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI)
        assert coords.u[0] == 256.0

    def test_negative_x_axis_hits_column_zero(self):
        cloud = PointCloud(positions=np.array([[-1.0, 0.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI)
        assert coords.u[0] == 0.0

    def test_fov_endpoint_rows(self):
        s = KITTI_SENSOR
        top = np.array([[math.cos(s.phi_up), 0.0, math.sin(s.phi_up)]])
        bottom = np.array([[math.cos(s.phi_down), 0.0, -math.sin(s.phi_down)]])
        coords = project_cylindrical(PointCloud(positions=top), KITTI)
        assert coords.v[0] == pytest.approx(0.0, abs=1e-9)
        coords = project_cylindrical(PointCloud(positions=bottom), KITTI)
        assert coords.v[0] == pytest.approx(64.0, abs=1e-9)

    def test_exact_bottom_boundary_stays_on_last_row(self):
        # build a sensor whose lower limit is bit-exactly this point's
        # elevation; the boundary is inclusive and must floor to row H-1
        pos = np.array([[2.0, 0.0, -1.0]])
        elev = float(np.arcsin(-1.0 / np.linalg.norm(pos[0])))
        plane = PlaneSpec("cylindrical", 64, 512,
                          sensor=SensorConfig(phi_up=0.5, phi_down=-elev))
        coords = project_cylindrical(PointCloud(positions=pos), plane)
        assert coords.in_fov[0]
        assert coords.v[0] == pytest.approx(64.0, abs=1e-9)
        assert math.floor(coords.v[0]) == 63

    def test_known_point(self):
        # frozen from an arbitrary-precision evaluation of the mapping
        cloud = PointCloud(positions=np.array([[3.0, 4.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI)
        assert coords.u[0] == pytest.approx(180.43718776297816, abs=1e-9)
        assert coords.v[0] == pytest.approx(6.857142857142857, abs=1e-9)
        u_mp, v_mp = oracles.range_project_mpmath((3.0, 4.0, 0.0), 3.0, 25.0, 64, 512)
        assert coords.u[0] == pytest.approx(u_mp, abs=1e-9)
        assert coords.v[0] == pytest.approx(v_mp, abs=1e-9)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, n=1000, labeled=False)
        coords = project_cylindrical(cloud, WIDE)
        u_ref, v_ref = oracles.range_project_reference(
            cloud.positions, WIDE_SENSOR.phi_up, WIDE_SENSOR.phi_down, 64, 512
        )
        assert np.abs(coords.u - u_ref).max() < 1e-9
        assert np.abs(coords.v - v_ref).max() < 1e-9

    def test_depth_is_the_clouds_depths(self):
        cloud = random_cloud(np.random.default_rng(6), n=200, labeled=False)
        assert project_cylindrical(cloud, WIDE).depth is cloud.depths

    def test_origin_point_rejected(self):
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point 1"):
            project_cylindrical(PointCloud(positions=pos), KITTI)

    def test_out_of_fov_masked_not_clamped(self):
        pos = np.array([[1.0, 0.0, 5.0]])  # far above the upward limit
        coords = project_cylindrical(PointCloud(positions=pos), KITTI)
        assert not coords.in_fov[0]
        assert coords.v[0] < 0  # raw value kept, no clamping into the grid

    def test_azimuth_monotone_in_u(self):
        azimuths = np.linspace(-math.pi + 1e-6, math.pi, 500)
        pos = np.stack([np.cos(azimuths), np.sin(azimuths), np.zeros(500)], axis=1)
        coords = project_cylindrical(PointCloud(positions=pos), KITTI)
        assert np.all(np.diff(coords.u) < 0)  # u strictly decreasing in azimuth

    def test_elevation_monotone_in_v(self):
        s = KITTI_SENSOR
        elev = np.linspace(-s.phi_down + 1e-6, s.phi_up - 1e-6, 300)
        pos = np.stack([np.cos(elev), np.zeros(300), np.sin(elev)], axis=1)
        coords = project_cylindrical(PointCloud(positions=pos), KITTI)
        assert np.all(np.diff(coords.v) < 0)

    def test_seam_direction_wraps_to_pi(self):
        pos = np.array([[-1.0, -0.0, 0.0]])
        coords = project_cylindrical(PointCloud(positions=pos), KITTI)
        assert coords.u[0] == 0.0


class TestOrthographicProjection:
    def spec(self, kind="xy_top", h=256, w=256, extent=(0, 10, 0, 10), depth_ref=5.0):
        return PlaneSpec(kind=kind, height=h, width=w, extent=extent, depth_ref=depth_ref)

    def test_affine_endpoints(self):
        cloud = PointCloud(positions=np.array([[0.0, 0.0, 1.0], [10.0, 10.0, 1.0]]))
        coords = project_orthographic(cloud, self.spec())
        assert (coords.u[0], coords.v[0]) == (0.0, 0.0)
        assert coords.in_fov[0]
        assert (coords.u[1], coords.v[1]) == (256.0, 256.0)
        assert not coords.in_fov[1]  # right/top edges exclusive

    def test_front_back_opposed(self):
        # the point nearer the front camera wins the front plane and loses
        # the back plane
        pos = np.array([[1.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
        cloud = PointCloud(positions=pos)
        front = PlaneSpec("xz_front", 16, 16, extent=(0, 4, 0, 4), depth_ref=4.0)
        back = PlaneSpec("xz_back", 16, 16, extent=(0, 4, 0, 4), depth_ref=0.0)
        _, idx_front = rasterize(cloud, project(cloud, front), front)
        _, idx_back = rasterize(cloud, project(cloud, back), back)
        col, row = int(1.0 * 16 / 4), int(1.0 * 16 / 4)  # x=1, z=1
        assert idx_front.winner[row, col] == 0  # y=3 is nearer the +y camera
        assert idx_back.winner[row, col] == 1

    def test_unmapping_recovers_coordinates(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, n=400, labeled=False)
        for kind in ("xy_top", "xz_front", "yz_right"):
            spec = next(s for s in default_plane_specs(cloud) if s.kind == kind)
            coords = project_orthographic(cloud, spec)
            u0, u1, v0, v1 = spec.extent
            pitch_u = (u1 - u0) / spec.width
            pitch_v = (v1 - v0) / spec.height
            center_u = u0 + (np.floor(coords.u) + 0.5) * pitch_u
            center_v = v0 + (np.floor(coords.v) + 0.5) * pitch_v
            axis_u = {"xy_top": 0, "xz_front": 0, "yz_right": 1}[kind]
            axis_v = {"xy_top": 1, "xz_front": 2, "yz_right": 2}[kind]
            assert np.abs(center_u - cloud.positions[:, axis_u]).max() <= pitch_u
            assert np.abs(center_v - cloud.positions[:, axis_v]).max() <= pitch_v

    def test_auto_geometry_matches_hand_table(self):
        def hand_table(lo, hi):
            return {
                "xy_top": ((lo[0], hi[0], lo[1], hi[1]), hi[2]),
                "xz_front": ((lo[0], hi[0], lo[2], hi[2]), hi[1]),
                "xz_back": ((lo[0], hi[0], lo[2], hi[2]), lo[1]),
                "yz_left": ((lo[1], hi[1], lo[2], hi[2]), lo[0]),
                "yz_right": ((lo[1], hi[1], lo[2], hi[2]), hi[0]),
            }

        spec_fn = cfg.plane_spec_builder(cfg.validate_config({})["planes"])
        rng = np.random.default_rng(12)
        for _ in range(20):
            scale = rng.uniform(0.1, 100.0, size=3)
            cloud = PointCloud(positions=rng.normal(size=(50, 3)) * scale)
            lo, hi = auto_extent(cloud)
            want = hand_table(lo, hi)
            for source in (default_plane_specs(cloud), spec_fn(cloud)):
                for spec in source:
                    if spec.kind == "cylindrical":
                        continue
                    extent, depth_ref = want[spec.kind]
                    assert spec.extent == tuple(float(e) for e in extent)
                    assert spec.depth_ref == float(depth_ref)
                    assert all(type(e) is float for e in spec.extent)
                    assert type(spec.depth_ref) is float

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            PlaneSpec("xy_top", 8, 8, extent=(0, 0, 0, 1), depth_ref=1.0)


class TestRasterize:
    def test_min_depth_wins(self):
        pos = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 5.0]])
        cloud = PointCloud(positions=pos)
        spec = PlaneSpec("xz_front", 8, 8, extent=(0, 4, 0, 8), depth_ref=6.0)
        coords = project(cloud, spec)
        assert coords.depth.tolist() == [5.0, 5.0]  # same pixel, same u...
        # give them distinct depths through y instead
        pos = np.array([[1.0, 4.0, 2.0], [1.0, 1.0, 2.0]])
        cloud = PointCloud(positions=pos)
        coords = project(cloud, spec)
        _, index = rasterize(cloud, coords, spec)
        r, c = int(coords.v[0]), int(coords.u[0])
        assert index.winner[r, c] == 0  # depth 2.0 beats depth 5.0
        assert index.zbuffer[r, c] == 2.0

    def test_tie_goes_to_lowest_index(self):
        pos = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        cloud = PointCloud(positions=pos)
        spec = PlaneSpec("xy_top", 4, 4, extent=(0, 2, 0, 2), depth_ref=2.0)
        coords = project(cloud, spec)
        _, index = rasterize(cloud, coords, spec)
        assert index.winner[int(coords.v[0]), int(coords.u[0])] == 0

    def test_empty_pixels(self):
        cloud = PointCloud(positions=np.array([[0.5, 0.5, 1.0]]))
        spec = PlaneSpec("xy_top", 4, 4, extent=(0, 2, 0, 2), depth_ref=2.0)
        raster, index = rasterize(cloud, project(cloud, spec), spec)
        occupancy = raster[:, :, 4]
        assert occupancy.sum() == 1.0
        assert (index.winner == EMPTY).sum() == 15
        assert np.isinf(index.zbuffer[index.winner == EMPTY]).all()

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, n=1000, labeled=False)
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        # a front view narrower than the cloud: points out of view land on
        # the discard pixel
        u0, u1, v0, v1 = specs[1].extent
        specs.append(dataclasses.replace(specs[1], extent=(u0, (u0 + u1) / 2, v0, v1)))
        cases = [(cloud, spec, project(cloud, spec)) for spec in specs]
        # a top view of a 1e-308 m square: the cloud's grid coordinates
        # overflow to +-inf, and 50 points inside the square stay in view
        tiny = PointCloud(positions=np.concatenate(
            [cloud.positions[:200], rng.uniform(0.0, 1e-308, (50, 3))]))
        spec = PlaneSpec("xy_top", 8, 8, extent=(0.0, 1e-308, 0.0, 1e-308), depth_ref=1.0)
        coords = project(tiny, spec)
        assert np.isposinf(coords.u).any() and np.isneginf(coords.v).any()
        assert coords.in_fov.sum() == 50
        cases.append((tiny, spec, coords))
        # tie-heavy: lattice-snapped points plus exact duplicates share pixels
        # and depths; viewing planes on a lattice value give depths of exactly
        # 0.0, and half of those get their sign flipped so +0.0 and -0.0 meet
        # in one pixel
        snapped = np.round(random_cloud(rng, n=600, labeled=False).positions * 2) / 2
        ties = PointCloud(positions=np.concatenate([snapped, snapped[::3]]))
        for spec in default_plane_specs(ties, sensor=WIDE_SENSOR):
            if spec.kind != "cylindrical":
                spec = dataclasses.replace(spec, depth_ref=1.0)
            coords = project(ties, spec)
            depth = coords.depth.copy()
            zero = np.flatnonzero(depth == 0.0)
            depth[zero[::2]] = -depth[zero[::2]]
            cases.append((ties, spec, dataclasses.replace(coords, depth=depth)))
        zeros = np.concatenate([c.depth[c.depth == 0.0] for _, _, c in cases])
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        # both sides of rasterize's choice: every point in view, or not
        every = [bool(c.in_fov.all()) for _, _, c in cases]
        assert every == [True] * 5 + [False, False, False] + [True] * 5 + [False], every
        for cl, spec, coords in cases:
            _, index = rasterize(cl, coords, spec)
            winner, zbuf = oracles.zbuffer_sequential(
                coords.u, coords.v, coords.depth, coords.in_fov,
                spec.height, spec.width,
            )
            assert np.array_equal(index.winner, winner), spec.kind
            assert index.zbuffer.tobytes() == zbuf.tobytes(), spec.kind

    def test_matches_literal_pixel_scan(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, n=150, labeled=False)
        spec = PlaneSpec("xy_top", 8, 8, extent=(-4, 4, -4, 4), depth_ref=3.5)
        coords = project(cloud, spec)
        _, index = rasterize(cloud, coords, spec)
        winner, zbuf = oracles.zbuffer_pixel_scan(
            coords.u, coords.v, coords.depth, coords.in_fov, 8, 8
        )
        assert np.array_equal(index.winner, winner)
        assert np.array_equal(index.zbuffer, zbuf)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, n=10, labeled=False)
        other = random_cloud(rng, n=9, labeled=False)
        spec = PlaneSpec("xy_top", 4, 4, extent=(-5, 5, -5, 5), depth_ref=4.0)
        with pytest.raises(ValueError, match="mismatch"):
            rasterize(other, project(cloud, spec), spec)

    def test_permutation_relabels_winners(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, n=300, labeled=False)
        perm = rng.permutation(cloud.n)
        permuted = PointCloud(positions=cloud.positions[perm])
        spec = default_plane_specs(cloud, sensor=WIDE_SENSOR)[0]
        _, idx_a = rasterize(cloud, project(cloud, spec), spec)
        _, idx_b = rasterize(permuted, project(permuted, spec), spec)
        assert np.array_equal(idx_a.zbuffer, idx_b.zbuffer)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(cloud.n)
        relabeled = np.where(idx_b.winner >= 0, perm[np.maximum(idx_b.winner, 0)], EMPTY)
        assert np.array_equal(idx_a.winner, relabeled)


class TestPixel:
    """`pixel` is point-aligned: floored row-major in FOV, and the discard
    pixel h * w, one past the last real one, out of FOV."""

    @staticmethod
    def check(coords, height, width):
        mask = coords.in_fov
        assert coords.pixel.shape == coords.u.shape
        assert np.all(coords.pixel[~mask] == height * width)
        floored = (np.floor(coords.v[mask]).astype(np.int64) * width
                   + np.floor(coords.u[mask]).astype(np.int64))
        assert np.array_equal(coords.pixel[mask], floored)

    def test_orthographic_pixel_is_floored_row_major(self):
        # u = x and v = z exactly here: points on integer grid lines, one ulp
        # below the right and top edges, on the edges (out of FOV), and -0.0
        spec = PlaneSpec("xz_front", 4, 8, extent=(0.0, 8.0, 0.0, 4.0), depth_ref=5.0)
        w_ulp, h_ulp = np.nextafter(8.0, 0.0), np.nextafter(4.0, 0.0)
        pos = np.array([
            [0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [3.0, 0.0, 2.0], [7.0, 0.0, 3.0],
            [w_ulp, 0.0, h_ulp], [w_ulp, 0.0, 0.0], [2.5, 0.0, 3.5],
            [8.0, 0.0, 1.0], [1.0, 0.0, 4.0], [-0.0, 0.0, -0.0],
        ])
        coords = project_orthographic(PointCloud(positions=pos), spec)
        assert coords.in_fov.tolist() == [True] * 7 + [False, False, True]
        assert coords.pixel.tolist() == [0, 9, 19, 31, 31, 7, 26, 32, 32, 0]
        self.check(coords, 4, 8)

    def test_cylindrical_bottom_boundary_row(self):
        pos = np.array([[2.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        elev = float(np.arcsin(-1.0 / np.linalg.norm(pos[0])))
        plane = PlaneSpec("cylindrical", 64, 512,
                          sensor=SensorConfig(phi_up=0.5, phi_down=-elev))
        coords = project_cylindrical(PointCloud(positions=pos), plane)
        assert coords.in_fov.tolist() == [True, True, False]
        assert coords.pixel[0] == 63 * 512 + 256  # the last row, not row 64
        assert coords.pixel[2] == 64 * 512  # out of FOV: the discard pixel
        self.check(coords, 64, 512)

    def test_every_plane_of_a_random_cloud(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, n=2000)
        for spec in default_plane_specs(cloud, sensor=WIDE_SENSOR):
            coords = project(cloud, spec)
            assert coords.pixel.dtype == np.int64
            self.check(coords, spec.height, spec.width)


class TestHexPlaneProject:
    def test_deterministic(self):
        rng = np.random.default_rng(21)
        cloud = random_cloud(rng, n=300)
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        a = hexplane_project(cloud, specs)
        b = hexplane_project(cloud, specs, threads=4)
        for pa, pb in zip(a.planes, b.planes):
            assert np.array_equal(pa.raster, pb.raster)
            assert np.array_equal(pa.index.winner, pb.index.winner)

    def test_opposite_views_share_one_read_only_grid(self):
        rng = np.random.default_rng(25)
        cloud = random_cloud(rng, n=300)
        planes = dict(zip(PLANE_KINDS, hexplane_project(cloud, default_plane_specs(cloud)).planes))
        for a, b in (("xz_front", "xz_back"), ("yz_left", "yz_right")):
            ca, cb = planes[a].index.coords, planes[b].index.coords
            assert not np.array_equal(ca.depth, cb.depth)
            for name in ("u", "v", "in_fov", "pixel"):
                array = getattr(ca, name)
                assert array is getattr(cb, name), (a, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    @pytest.mark.parametrize("kind,change", [
        ("xz_back", {"height": 32}),
        ("xz_back", {"width": 100}),
        ("xz_back", "half extent"),
        ("yz_right", {"height": 17, "width": 9}),
    ])
    def test_unmatched_twin_equals_projecting_each_plane_alone(self, kind, change):
        rng = np.random.default_rng(26)
        cloud = random_cloud(rng, n=600)
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        m = PLANE_KINDS.index(kind)
        if change == "half extent":
            u0, u1, v0, v1 = specs[m].extent
            change = {"extent": (u0, (u0 + u1) / 2, v0, v1)}
        specs[m] = dataclasses.replace(specs[m], **change)
        hexset = hexplane_project(cloud, specs)
        if "extent" in change:  # the narrowed view loses points its twin keeps
            assert not hexset.planes[m].index.coords.in_fov.all()
        for spec, plane in zip(specs, hexset.planes):
            coords = project(cloud, spec)
            raster, index = rasterize(cloud, coords, spec)
            assert plane.raster.tobytes() == raster.tobytes(), spec.kind
            assert np.array_equal(plane.index.winner, index.winner), spec.kind
            assert plane.index.zbuffer.tobytes() == index.zbuffer.tobytes(), spec.kind
            for name in ("u", "v", "depth", "in_fov", "pixel"):
                got, want = getattr(plane.index.coords, name), getattr(coords, name)
                assert got.tobytes() == want.tobytes(), (spec.kind, name)

    def test_every_point_in_fov_on_top_view(self):
        rng = np.random.default_rng(22)
        cloud = random_cloud(rng, n=800)
        hexset = hexplane_project(cloud, default_plane_specs(cloud))
        assert hexset.planes[0].index.coords.in_fov.all()

    def test_missing_plane_rejected(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng, n=10)
        specs = default_plane_specs(cloud)[:-1]
        with pytest.raises(ValueError, match="planes must be exactly"):
            hexplane_project(cloud, specs)

    def test_shuffled_plane_order_rejected(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng, n=10)
        specs = default_plane_specs(cloud)
        shuffled = [specs[i] for i in (5, 0, 1, 2, 3, 4)]
        with pytest.raises(ValueError, match="planes must be exactly"):
            hexplane_project(cloud, shuffled)

    def test_coverage_superset_and_strictness(self):
        cloud, _ = make_occlusion_scene()
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        hexset = hexplane_project(cloud, specs)
        winner_sets = [
            set(p.index.winner[p.index.winner >= 0].tolist()) for p in hexset.planes
        ]
        union = set().union(*winner_sets)
        cyl = winner_sets[5]
        assert union >= cyl
        assert len(union) > len(cyl)  # extra planes recover occluded points

    def test_truncated_index_at_every_offset_is_value_error(self, tmp_path):
        rng = np.random.default_rng(24)
        cloud = random_cloud(rng, n=5)
        resolutions = {kind: (3, 4) for kind in PLANE_KINDS}
        hexset = hexplane_project(
            cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR, resolutions=resolutions)
        )
        path = tmp_path / "p.index.bin"
        save_projection_index(path, hexset)
        raw = path.read_bytes()
        assert len(load_projection_index(path)) == 6
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(ValueError, match="truncated|bad magic"):
                load_projection_index(cut)

    def test_runtime_scales_roughly_linearly(self):
        # informational: measured, not asserted as a hard bound
        rng = np.random.default_rng(30)
        times = {}
        for n in (2000, 8000):
            cloud = random_cloud(rng, n=n)
            specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
            t0 = time.perf_counter()
            hexplane_project(cloud, specs)
            times[n] = time.perf_counter() - t0
        print(f"\nhexplane_project: {times[2000]*1e3:.1f} ms @ 2k points, "
              f"{times[8000]*1e3:.1f} ms @ 8k points "
              f"(ratio {times[8000]/max(times[2000], 1e-9):.2f}x for 4x points)")


def whole_offsets(cloud, hexset):
    """Every point's offsets, (N, 6, 3), and each plane's in-FOV mask, (N, 6)."""
    valid = np.stack([plane.index.coords.in_fov for plane in hexset.planes], axis=1)
    return gather_offsets(cloud, winner_table(cloud, hexset), slice(None)), valid


class TestOffsets:
    def test_winners_have_zero_offset(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, n=400)
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        offsets, valid = whole_offsets(cloud, hexset)
        for m, plane in enumerate(hexset.planes):
            winners = plane.index.winner[plane.index.winner >= 0]
            assert np.all(offsets[winners, m, :] == 0.0)

    def test_probe_offset_magnitude(self):
        cloud, info = make_occlusion_scene()
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        hexset = hexplane_project(cloud, specs)
        offsets, valid = whole_offsets(cloud, hexset)
        probes = info["probe_indices"]
        gens = info["generator_indices"]
        cyl = hexset.planes[5].index
        rows = np.floor(cyl.coords.v[probes]).astype(int)
        cols = np.floor(cyl.coords.u[probes]).astype(int)
        assert valid[probes, 5].all()
        assert np.array_equal(cyl.winner[rows, cols], gens)  # occluded by design
        norms = np.linalg.norm(offsets[probes, 5, :], axis=1)
        assert np.abs(norms - info["displacement"]).max() < 1e-6

    def test_offsets_match_recomputation(self):
        rng = np.random.default_rng(33)
        cloud = random_cloud(rng, n=500)
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        offsets, valid = whole_offsets(cloud, hexset)
        for m, plane in enumerate(hexset.planes):
            coords = plane.index.coords
            for i in range(0, cloud.n, 37):
                if not coords.in_fov[i]:
                    assert not valid[i, m]
                    assert np.all(offsets[i, m] == 0.0)
                    continue
                r = int(math.floor(coords.v[i]))
                c = int(math.floor(coords.u[i]))
                w = plane.index.winner[r, c]
                expected = cloud.positions[i] - cloud.positions[w]
                assert np.array_equal(offsets[i, m], expected)

    def test_out_of_fov_invalid_and_zeroed(self):
        pos = np.array([[1.0, 0.0, 0.0], [0.1, 0.0, 5.0]])  # second above FOV
        cloud = PointCloud(positions=pos)
        specs = default_plane_specs(cloud, sensor=KITTI_SENSOR)
        hexset = hexplane_project(cloud, specs)
        offsets, valid = whole_offsets(cloud, hexset)
        assert not valid[1, 5]
        assert np.all(offsets[1, 5] == 0.0)


class TestAxisMajorLayout:
    """The cloud stores its coordinates axis-major and the projection reads
    rows; a C-ordered copy projected with the column formulas gives the
    same bits."""

    @pytest.mark.parametrize("sensor,narrow", [(SensorConfig(math.pi / 2, math.pi / 2), False),
                                               (KITTI_SENSOR, True)],
                             ids=["in_view", "partly_in_view"])
    def test_matches_column_oracle(self, sensor, narrow):
        rng = np.random.default_rng(61)
        cloud = random_cloud(rng, n=1000)
        specs = default_plane_specs(cloud, sensor=sensor)
        if narrow:  # a top view over half of the cloud's y range
            u0, u1, v0, v1 = specs[0].extent
            specs[0] = dataclasses.replace(specs[0], extent=(u0, u1, v0, (v0 + v1) / 2))
        hexset = hexplane_project(cloud, specs)
        every = [bool(p.index.coords.in_fov.all()) for p in hexset.planes]
        assert every == [not narrow] + [True] * 4 + [not narrow], every
        depths, planes, offsets = oracles.project_columns_reference(cloud.positions, specs)
        assert cloud.depths.tobytes() == depths.tobytes()
        for plane, want in zip(hexset.planes, planes):
            coords, index = plane.index.coords, plane.index
            got = {"u": coords.u, "v": coords.v, "depth": coords.depth,
                   "in_fov": coords.in_fov, "pixel": coords.pixel, "winner": index.winner,
                   "zbuffer": index.zbuffer, "raster": plane.raster}
            for name, array in got.items():
                assert array.dtype == want[name].dtype, (plane.spec.kind, name)
                assert array.tobytes() == want[name].tobytes(), (plane.spec.kind, name)
        got_offsets, valid = whole_offsets(cloud, hexset)
        assert got_offsets.tobytes() == offsets.tobytes()
        assert np.array_equal(valid, np.stack([p["in_fov"] for p in planes], axis=1))

    def test_encode_points_reads_either_layout_to_the_same_bits(self):
        rng = np.random.default_rng(62)
        cloud = random_cloud(rng, n=1000)
        assert cloud.positions.flags.f_contiguous
        feats = default_features(cloud)
        params = init_point_encoder(4, 8, rng)
        rows = np.ascontiguousarray(cloud.positions)
        # at 2**-40 m the cells outnumber an int64 key: the np.unique(axis=0) path
        for voxel in (0.3, 2.0**-40):
            got = voxel_pool(cloud.positions, feats, params, voxel_size=voxel)
            want = voxel_pool(rows, feats, params, voxel_size=voxel)
            for a, b in zip(got, want):  # inverse, counts, means
                assert a.tobytes() == b.tobytes()
            out, _ = encode_points(feats, got, params, slice(None))
            assert out.tobytes() == encode_points(feats, want, params, slice(None))[0].tobytes()


class TestLabelRasters:
    def test_single_point(self):
        cloud = PointCloud(
            positions=np.array([[0.5, 0.5, 1.0]]), labels=np.array([2])
        )
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        for plane, img in zip(hexset.planes, rasterize_labels(cloud, hexset)):
            expected = 1 if plane.index.coords.in_fov[0] else 0
            assert (img == 2).sum() == expected
            assert (img != -1).sum() == expected

    def test_consistent_with_winner_map(self):
        rng = np.random.default_rng(41)
        cloud = random_cloud(rng, n=600)
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        for plane, img in zip(hexset.planes, rasterize_labels(cloud, hexset)):
            occupied = plane.index.winner >= 0
            assert np.array_equal(
                img[occupied], cloud.labels[plane.index.winner[occupied]]
            )
            assert np.all(img[~occupied] == -1)

    def test_label_fraction_equals_occupancy_mean(self):
        rng = np.random.default_rng(42)
        cloud = random_cloud(rng, n=700)
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        for plane, img in zip(hexset.planes, rasterize_labels(cloud, hexset)):
            frac = (img != -1).mean()
            assert abs(frac - plane.raster[:, :, 4].mean()) < 1e-9

    def test_unlabeled_cloud_rejected(self):
        cloud = PointCloud(positions=np.ones((3, 3)))
        hexset = hexplane_project(cloud, default_plane_specs(cloud))
        with pytest.raises(ValueError, match="unlabeled"):
            rasterize_labels(cloud, hexset)


def test_cylindrical_quantization_round_trip():
    # re-projecting the winner attributes stored in the raster lands in the
    # same pixel that stored them
    rng = np.random.default_rng(50)
    positions = rng.uniform(-4, 4, size=(800, 3))
    positions[:, 2] = rng.uniform(0.1, 3.0, size=800)
    cloud = PointCloud(positions=positions)
    coords = project(cloud, WIDE)
    raster, index = rasterize(cloud, coords, WIDE)
    occupied = np.argwhere(index.winner >= 0)
    stored = raster[occupied[:, 0], occupied[:, 1], :3]
    re_coords = project_cylindrical(PointCloud(positions=stored), WIDE)
    assert np.array_equal(np.floor(re_coords.v).astype(int), occupied[:, 0])
    assert np.array_equal(np.floor(re_coords.u).astype(int), occupied[:, 1])


def _forty_point_set():
    cloud = random_cloud(np.random.default_rng(40), n=40)
    return hexplane_project(cloud, default_plane_specs(
        cloud, sensor=WIDE_SENSOR, resolutions=dict.fromkeys(PLANE_KINDS, (4, 8))))


FIVE = random_cloud(np.random.default_rng(0), n=5)
UNIT = (0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("refused, field", [
    (lambda: PlaneSpec("sphere", 4, 4), "kind 'sphere'"),
    (lambda: PlaneSpec("cylindrical", 4, 4, extent=UNIT), "needs a sensor"),
    (lambda: PlaneSpec("cylindrical", 4, 4, sensor=WIDE_SENSOR, extent=UNIT), "not an extent"),
    (lambda: PlaneSpec("xy_top", 4, 4, extent=UNIT, depth_ref=0.0, sensor=WIDE_SENSOR),
     "not a sensor"),
    (lambda: PlaneSpec("xy_top", 4, 4, depth_ref=0.0), "needs an extent"),
    (lambda: PlaneSpec("xz_front", 4, 4, extent=UNIT), "depth_ref"),
    (lambda: PlaneSpec("yz_left", 0, 4, extent=UNIT, depth_ref=0.0), "grid"),
    (lambda: PlaneSpec("cylindrical", 4, -1, sensor=WIDE_SENSOR), "grid"),
    (lambda: SensorConfig(phi_up=0.0, phi_down=0.5), "phi_up and phi_down"),
    (lambda: SensorConfig(phi_up=0.5, phi_down=-0.1), "phi_up and phi_down"),
    (lambda: project_orthographic(FIVE, WIDE), "cylindrical is not an orthographic plane"),
    (lambda: rasterize(FIVE, project(FIVE, WIDE), WIDE, channels=("occupancy", "colour")),
     "channel 'colour'"),
    (lambda: winner_table(FIVE, _forty_point_set()), "hexplane set"),
], ids=["unknown_kind", "cylinder_extent", "cylinder_both", "ortho_sensor", "ortho_no_extent",
        "no_depth_ref", "zero_rows", "negative_cols", "zero_phi_up", "negative_phi_down",
        "ortho_on_cylinder", "unknown_channel", "other_cloud"])
def test_each_refusal_names_its_field(refused, field):
    with pytest.raises(ValueError) as caught:
        refused()
    assert type(caught.value) is ValueError and field in str(caught.value)
