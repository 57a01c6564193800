"""View projection: grid mapping, z-buffer, offsets, and label rasters."""

import math
import time

import numpy as np
import pytest

import oracles
from hexplane.cloud import PointCloud, make_occlusion_scene
from hexplane.images import load_projection_index, save_projection_index
from hexplane.projection import (
    EMPTY,
    PLANE_KINDS,
    PlaneSpec,
    SensorConfig,
    default_plane_specs,
    gather_offsets,
    hexplane_project,
    project,
    project_cylindrical,
    project_orthographic,
    rasterize,
    rasterize_labels,
)

KITTI_SENSOR = SensorConfig(
    phi_up=math.radians(3.0), phi_down=math.radians(25.0), height=64, width=512
)

WIDE_SENSOR = SensorConfig(
    phi_up=math.radians(60.0), phi_down=math.radians(35.0), height=64, width=512
)


def random_cloud(rng, n=500, labeled=True):
    positions = rng.uniform(-4, 4, size=(n, 3))
    positions[:, 2] = rng.uniform(0.1, 3.0, size=n)
    labels = rng.integers(0, 4, size=n) if labeled else None
    return PointCloud(positions=positions, labels=labels)


class TestCylindricalProjection:
    def test_positive_x_axis_hits_center_column(self):
        cloud = PointCloud(positions=np.array([[1.0, 0.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI_SENSOR)
        assert coords.u[0] == 256.0

    def test_negative_x_axis_hits_column_zero(self):
        cloud = PointCloud(positions=np.array([[-1.0, 0.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI_SENSOR)
        assert coords.u[0] == 0.0

    def test_fov_endpoint_rows(self):
        s = KITTI_SENSOR
        top = np.array([[math.cos(s.phi_up), 0.0, math.sin(s.phi_up)]])
        bottom = np.array([[math.cos(s.phi_down), 0.0, -math.sin(s.phi_down)]])
        coords = project_cylindrical(PointCloud(positions=top), s)
        assert coords.v[0] == pytest.approx(0.0, abs=1e-9)
        coords = project_cylindrical(PointCloud(positions=bottom), s)
        assert coords.v[0] == pytest.approx(64.0, abs=1e-9)

    def test_exact_bottom_boundary_stays_on_last_row(self):
        # build a sensor whose lower limit is bit-exactly this point's
        # elevation; the boundary is inclusive and must floor to row H-1
        pos = np.array([[2.0, 0.0, -1.0]])
        elev = float(np.arcsin(-1.0 / np.linalg.norm(pos[0])))
        sensor = SensorConfig(phi_up=0.5, phi_down=-elev, height=64, width=512)
        coords = project_cylindrical(PointCloud(positions=pos), sensor)
        assert coords.in_fov[0]
        assert coords.v[0] == pytest.approx(64.0, abs=1e-9)
        assert math.floor(coords.v[0]) == 63

    def test_known_point(self):
        # frozen from an arbitrary-precision evaluation of the mapping
        cloud = PointCloud(positions=np.array([[3.0, 4.0, 0.0]]))
        coords = project_cylindrical(cloud, KITTI_SENSOR)
        assert coords.u[0] == pytest.approx(180.43718776297816, abs=1e-9)
        assert coords.v[0] == pytest.approx(6.857142857142857, abs=1e-9)
        u_mp, v_mp = oracles.range_project_mpmath((3.0, 4.0, 0.0), 3.0, 25.0, 64, 512)
        assert coords.u[0] == pytest.approx(u_mp, abs=1e-9)
        assert coords.v[0] == pytest.approx(v_mp, abs=1e-9)

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, n=1000, labeled=False)
        coords = project_cylindrical(cloud, WIDE_SENSOR)
        u_ref, v_ref = oracles.range_project_reference(
            cloud.positions, WIDE_SENSOR.phi_up, WIDE_SENSOR.phi_down, 64, 512
        )
        assert np.abs(coords.u - u_ref).max() < 1e-9
        assert np.abs(coords.v - v_ref).max() < 1e-9

    def test_origin_point_rejected(self):
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="point 1"):
            project_cylindrical(PointCloud(positions=pos), KITTI_SENSOR)

    def test_out_of_fov_masked_not_clamped(self):
        pos = np.array([[1.0, 0.0, 5.0]])  # far above the upward limit
        coords = project_cylindrical(PointCloud(positions=pos), KITTI_SENSOR)
        assert not coords.in_fov[0]
        assert coords.v[0] < 0  # raw value kept, no clamping into the grid

    def test_azimuth_monotone_in_u(self):
        azimuths = np.linspace(-math.pi + 1e-6, math.pi, 500)
        pos = np.stack([np.cos(azimuths), np.sin(azimuths), np.zeros(500)], axis=1)
        coords = project_cylindrical(PointCloud(positions=pos), KITTI_SENSOR)
        assert np.all(np.diff(coords.u) < 0)  # u strictly decreasing in azimuth

    def test_elevation_monotone_in_v(self):
        s = KITTI_SENSOR
        elev = np.linspace(-s.phi_down + 1e-6, s.phi_up - 1e-6, 300)
        pos = np.stack([np.cos(elev), np.zeros(300), np.sin(elev)], axis=1)
        coords = project_cylindrical(PointCloud(positions=pos), s)
        assert np.all(np.diff(coords.v) < 0)

    def test_seam_direction_wraps_to_pi(self):
        pos = np.array([[-1.0, -0.0, 0.0]])
        coords = project_cylindrical(PointCloud(positions=pos), KITTI_SENSOR)
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
        for spec in default_plane_specs(cloud, sensor=WIDE_SENSOR):
            coords = project(cloud, spec)
            _, index = rasterize(cloud, coords, spec)
            winner, zbuf = oracles.zbuffer_sequential(
                coords.u, coords.v, coords.depth, coords.in_fov,
                spec.height, spec.width,
            )
            assert np.array_equal(index.winner, winner), spec.kind
            assert np.array_equal(index.zbuffer, zbuf), spec.kind

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

    def test_every_point_in_fov_on_top_view(self):
        rng = np.random.default_rng(22)
        cloud = random_cloud(rng, n=800)
        hexset = hexplane_project(cloud, default_plane_specs(cloud))
        assert hexset.planes[0].index.coords.in_fov.all()

    def test_missing_plane_rejected(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng, n=10)
        specs = default_plane_specs(cloud)[:-1]
        with pytest.raises(ValueError, match="missing"):
            hexplane_project(cloud, specs)

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
        small = SensorConfig(phi_up=math.radians(60.0), phi_down=math.radians(35.0),
                             height=3, width=4)
        resolutions = {kind: (3, 4) for kind in PLANE_KINDS[:5]}
        hexset = hexplane_project(
            cloud, default_plane_specs(cloud, sensor=small, resolutions=resolutions)
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


class TestOffsets:
    def test_winners_have_zero_offset(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, n=400)
        hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
        offsets, valid = gather_offsets(cloud, hexset)
        for m, plane in enumerate(hexset.planes):
            winners = plane.index.winner[plane.index.winner >= 0]
            assert np.all(offsets[winners, m, :] == 0.0)

    def test_probe_offset_magnitude(self):
        cloud, info = make_occlusion_scene()
        specs = default_plane_specs(cloud, sensor=WIDE_SENSOR)
        hexset = hexplane_project(cloud, specs)
        offsets, valid = gather_offsets(cloud, hexset)
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
        offsets, valid = gather_offsets(cloud, hexset)
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
        offsets, valid = gather_offsets(cloud, hexset)
        assert not valid[1, 5]
        assert np.all(offsets[1, 5] == 0.0)


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
    spec = PlaneSpec("cylindrical", 64, 512, sensor=WIDE_SENSOR)
    coords = project(cloud, spec)
    raster, index = rasterize(cloud, coords, spec)
    occupied = np.argwhere(index.winner >= 0)
    stored = raster[occupied[:, 0], occupied[:, 1], :3]
    re_coords = project_cylindrical(PointCloud(positions=stored), WIDE_SENSOR)
    assert np.array_equal(np.floor(re_coords.v).astype(int), occupied[:, 0])
    assert np.array_equal(np.floor(re_coords.u).astype(int), occupied[:, 1])
