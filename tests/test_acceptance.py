"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from hexplane import config as cfg
from hexplane.attention import (
    attention_weights,
    cross_attention_forward,
)
from hexplane.checkpoint import save_checkpoint
from hexplane.cli import main
from hexplane.cloud import PointCloud, make_occlusion_scene
from hexplane.gradcheck import grad_check
from hexplane.metrics import ConfusionMatrix, PRCurve, average_precision, segmentation_scores
from hexplane.projection import (
    PlaneSpec,
    SensorConfig,
    default_plane_specs,
    gather_offsets,
    hexplane_project,
    project,
    project_cylindrical,
    winner_table,
)
from hexplane.training import train_toy, write_log

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

WIDE_SENSOR = SensorConfig(phi_up=math.radians(60.0), phi_down=math.radians(35.0))


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_projection_suite():
    t0 = time.perf_counter()
    sensor = SensorConfig(phi_up=math.radians(3.0), phi_down=math.radians(25.0))
    plane = PlaneSpec("cylindrical", 64, 512, sensor=sensor)
    # FOV endpoint rows
    top = PointCloud(positions=np.array(
        [[math.cos(sensor.phi_up), 0.0, math.sin(sensor.phi_up)]]))
    bottom = PointCloud(positions=np.array(
        [[math.cos(sensor.phi_down), 0.0, -math.sin(sensor.phi_down)]]))
    ok = abs(project_cylindrical(top, plane).v[0]) < 1e-9
    ok &= abs(project_cylindrical(bottom, plane).v[0] - 64.0) < 1e-9
    # azimuth symmetry
    plus_x = PointCloud(positions=np.array([[1.0, 0.0, 0.0]]))
    minus_x = PointCloud(positions=np.array([[-1.0, 0.0, 0.0]]))
    ok &= project_cylindrical(plus_x, plane).u[0] == 256.0
    ok &= project_cylindrical(minus_x, plane).u[0] == 0.0
    # 1000 random points vs the extended-precision reference
    rng = np.random.default_rng(100)
    positions = rng.uniform(-5, 5, size=(1000, 3))
    positions[:, 2] = rng.uniform(0.1, 3.0, size=1000)
    cloud = PointCloud(positions=positions)
    coords = project_cylindrical(cloud, PlaneSpec("cylindrical", 64, 512, sensor=WIDE_SENSOR))
    u_ref, v_ref = oracles.range_project_reference(
        positions, WIDE_SENSOR.phi_up, WIDE_SENSOR.phi_down, 64, 512
    )
    err = max(np.abs(coords.u - u_ref).max(), np.abs(coords.v - v_ref).max())
    ok &= err < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"endpoint rows, azimuth symmetry, 1000-point max error "
                  f"{err:.2e} (<1e-9), runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_zbuffer_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(50, 2001))
        positions = rng.uniform(-4, 4, size=(n, 3))
        positions[:, 2] = rng.uniform(0.05, 3.0, size=n)
        cloud = PointCloud(positions=positions)
        for spec in default_plane_specs(cloud, sensor=WIDE_SENSOR):
            coords = project(cloud, spec)
            from hexplane.projection import rasterize

            _, index = rasterize(cloud, coords, spec)
            winner, zbuf = oracles.zbuffer_sequential(
                coords.u, coords.v, coords.depth, coords.in_fov,
                spec.height, spec.width,
            )
            if not (np.array_equal(index.winner, winner)
                    and np.array_equal(index.zbuffer, zbuf)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(2, ok, f"50 clouds x 6 planes identical to the sequential "
                  f"brute-force z-buffer, runtime {elapsed:.1f}s (<30s)")


def test_criterion_3_occlusion_coverage():
    cloud, _ = make_occlusion_scene()
    hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
    winner_sets = [
        set(p.index.winner[p.index.winner >= 0].tolist()) for p in hexset.planes
    ]
    union = set().union(*winner_sets)
    cyl = winner_sets[5]
    frac_union = len(union) / cloud.n
    frac_cyl = len(cyl) / cloud.n
    ok = union >= cyl and frac_union > frac_cyl
    report(3, ok, f"coverage over six planes {frac_union:.3f} > cylindrical "
                  f"alone {frac_cyl:.3f} on the two-wall occlusion scene")


def test_criterion_4_offset_semantics():
    cloud, info = make_occlusion_scene()
    hexset = hexplane_project(cloud, default_plane_specs(cloud, sensor=WIDE_SENSOR))
    offsets = gather_offsets(cloud, winner_table(cloud, hexset), slice(None))
    ok = True
    for m, plane in enumerate(hexset.planes):
        winners = plane.index.winner[plane.index.winner >= 0]
        ok &= bool(np.all(offsets[winners, m, :] == 0.0))
    probes = info["probe_indices"]
    norms = np.linalg.norm(offsets[probes, 5, :], axis=1)
    probe_err = np.abs(norms - info["displacement"]).max()
    ok &= bool(hexset.planes[5].index.coords.in_fov[probes].all()) and probe_err < 1e-6
    report(4, ok, f"winners have exactly zero offset on every plane; "
                  f"{len(probes)} occluded probes at displacement "
                  f"{info['displacement']} m, max error {probe_err:.2e} (<1e-6)")


def test_criterion_5_gradient_verification():
    t0 = time.perf_counter()
    plan = {
        "attention": (0, 1, 2, 3, 4),
        "encoder": (5, 6, 7, 8, 9),
        "point_encoder": (10, 11, 12),
        "linear": (13, 14, 15),
        "loss": (16, 17, 18, 19),
    }
    worst = {}
    instances = 0
    for op, seeds in plan.items():
        for seed in seeds:
            r = grad_check(op, seed=seed, eps=1e-5)
            worst[op] = max(worst.get(op, 0.0), r.max_error)
            instances += 1
    per_op_ok = all(v < 1e-4 for v in worst.values())
    e2e = grad_check("model", seed=1, eps=1e-5)
    elapsed = time.perf_counter() - t0
    ok = per_op_ok and e2e.max_error < 1e-3 and instances == 20 and elapsed < 120.0
    report(5, ok, f"{instances} seeded instances, worst per-op rel. error "
                  f"{max(worst.values()):.2e} (<1e-4); end-to-end micro model "
                  f"{e2e.max_error:.2e} (<1e-3); runtime {elapsed:.1f}s (<2min)")


def test_criterion_6_attention_invariants():
    rng = np.random.default_rng(600)
    from hexplane.attention import init_attention_params

    n, m = 40, 6
    point_feats = rng.normal(size=(n, 5))
    gathered = rng.normal(size=(n, m, 4))
    valid = rng.uniform(size=(n, m)) > 0.4
    valid[:, 0] = True
    gathered[~valid] = 0.0
    offsets = rng.normal(size=(n, m, 3))
    offsets[~valid] = 0.0
    heads = 3
    params = init_attention_params(5, 4, heads=heads, head_dim=4, c_out=8, rng=rng)

    out, cache = cross_attention_forward(point_feats, gathered, valid, offsets, params, heads)
    weights = attention_weights(cache)
    norm_err = np.abs(weights.sum(axis=2) - 1.0).max()
    ok = norm_err < 1e-6

    tampered = gathered.copy()
    tampered[~valid] = 1e6
    out2, _ = cross_attention_forward(point_feats, tampered, valid, offsets, params, heads)
    ok &= bool(np.array_equal(out, out2))

    perm = rng.permutation(n)
    out_p, _ = cross_attention_forward(
        point_feats[perm], gathered[perm], valid[perm], offsets[perm], params, heads
    )
    ok &= bool(np.array_equal(out[perm], out_p))
    report(6, ok, f"softmax normalization error {norm_err:.2e} (<1e-6); "
                  f"masked-plane influence exactly zero; permutation "
                  f"equivariance exact")


def test_criterion_7_metric_oracle_equivalence():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(10, 150))
        labels = rng.integers(-1, k, size=n)
        preds = rng.integers(0, k, size=n)
        if np.all(labels == -1):
            labels[0] = 0
        got = segmentation_scores(ConfusionMatrix(k).update(preds, labels))
        want = oracles.segmentation_scores_reference(preds, labels, k)
        worst = max(
            worst,
            abs(got.miou - want["miou"]),
            abs(got.macc - want["macc"]),
            abs(got.oa - want["oa"]),
        )
    for _ in range(100):
        n = int(rng.integers(1, 25))
        scores = np.round(rng.uniform(size=n), 2)
        is_tp = rng.uniform(size=n) > 0.5
        num_gt = max(int(is_tp.sum()), 1) + int(rng.integers(0, 3))
        got_ap = average_precision(PRCurve(scores=scores, is_tp=is_tp, num_gt=num_gt))
        want_ap = oracles.average_precision_reference(
            scores.tolist(), is_tp.tolist(), num_gt
        )
        worst = max(worst, abs(got_ap - want_ap))
    two_point = PRCurve(
        scores=np.array([0.9, 0.7, 0.7, 0.5]),
        is_tp=np.array([True, False, False, True]),
        num_gt=2,
    )
    ok = worst < 1e-12 and average_precision(two_point) == 0.75
    report(7, ok, f"100+100 random instances vs set-based and hand-traced "
                  f"oracles, worst discrepancy {worst:.2e} (<1e-12); "
                  f"AP=0.75 interpolation case reproduces")


def run_config(path):
    tree = cfg.load_config(path)
    train_cloud = cfg.build_scene(tree["scene"])
    eval_cloud = (
        cfg.build_scene(tree["eval_scene"]) if tree["eval_scene"] else None
    )
    model_config = cfg.build_model_config(tree, cfg.scene_num_classes(tree))
    settings = cfg.build_train_settings(tree)
    spec_fn = cfg.plane_spec_builder(tree["planes"])
    return train_toy(
        train_cloud, model_config, settings, spec_fn,
        eval_cloud=eval_cloud, seed=tree["seed"],
    )


# sha256 of (checkpoint.bin, log.jsonl) as `hexplane train` writes them for
# each shipped config, and of the report `hexplane eval` writes for the
# occlusion_transfer model on its eval scene
SHIPPED_DIGESTS = {
    "two_class": ("6d6d74b1788f4401fcdf879a4d010157c3f71e03a2d2e8c698df6d2e11635337",
                  "812ca696fc74bbbcd88789cdbf582ea946e1e61a54f03837206f758290776392"),
    "occlusion_transfer": ("f19ffad49d80185f7735d2d4fdeadec96ac60abad8cbfff45693d1bd8cf89313",
                           "afc066ee4c0e642a4a79ddbeeae65cf217eb51c58a66316823baf4ac224c362a"),
    "occlusion_ablation": ("9fa32696005e8f8f542bafe32f2be90a59c149da546d30b135f7cce34715c42e",
                           "1ed3ed17da734764b62d016d6f8e596ca01ada49f96e36170e26034688e1e8b2"),
}
EVAL_REPORT_DIGEST = "262b8b4967ec2633f31f3efd09bdf6243ec447e39271db85887c6a9003747cc5"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_8_toy_end_to_end_learning(tmp_path):
    """The three shipped configs learn, and each writes the bytes that
    `hexplane train` wrote when the pins were taken, as does `hexplane eval`
    on the occlusion_transfer model. The pins hold for numpy 2.4.6 on
    scipy-openblas, which the package runs on one thread; another numpy or
    BLAS may round differently."""
    t0 = time.perf_counter()
    two_class = run_config(CONFIG_DIR / "two_class.yaml")
    two_class_time = time.perf_counter() - t0
    ok = two_class.final_oa >= 0.95 and two_class_time < 120.0

    full = run_config(CONFIG_DIR / "occlusion_transfer.yaml")
    ablation = run_config(CONFIG_DIR / "occlusion_ablation.yaml")
    # margin pinned from the fixed-seed development baseline runs
    margin = full.final_oa - ablation.final_oa
    ok &= full.final_oa > ablation.final_oa and margin >= 0.03
    report(8, ok, f"two-class OA {two_class.final_oa:.3f} (>=0.95) in "
                  f"{two_class_time:.0f}s (<2min, 300 of <=500 steps); held-out "
                  f"occlusion OA full {full.final_oa:.4f} vs point-only "
                  f"{ablation.final_oa:.4f} (margin {margin:+.4f} >= 0.03)")

    measured = {}
    for name, result in (("two_class", two_class), ("occlusion_transfer", full),
                         ("occlusion_ablation", ablation)):
        save_checkpoint(tmp_path / f"{name}.bin", result.model.parameters())
        write_log(tmp_path / f"{name}.jsonl", result.log)
        measured[name] = (sha256(tmp_path / f"{name}.bin"), sha256(tmp_path / f"{name}.jsonl"))
    assert measured == SHIPPED_DIGESTS, f"measured {measured}"
    assert main(["eval", "--config", str(CONFIG_DIR / "occlusion_transfer.yaml"),
                 "--checkpoint", str(tmp_path / "occlusion_transfer.bin"),
                 "--out", str(tmp_path / "report.json")]) == 0
    digest = sha256(tmp_path / "report.json")
    assert digest == EVAL_REPORT_DIGEST, f"measured {digest}"


def test_criterion_9_cli_determinism(tmp_path):
    import yaml

    tree = {
        "scene": {"kind": "synth", "seed": 3, "num_points": 300, "num_classes": 3,
                  "primitives": [{"kind": "box", "center": [1.5, 1.0, 0.5],
                                  "size": [1.0, 1.0, 1.0], "class_id": 2}]},
        "planes": {
            "xy_top": {"height": 24, "width": 24},
            "xz_front": {"height": 16, "width": 48},
            "xz_back": {"height": 16, "width": 48},
            "yz_left": {"height": 16, "width": 48},
            "yz_right": {"height": 16, "width": 48},
            "cylindrical": {"height": 16, "width": 48, "fov_up_deg": 60.0,
                            "fov_down_deg": 35.0},
        },
        "model": {"point_width": 8, "encoder_widths": [3, 4, 5],
                  "feature_channels": 6, "heads": 2, "head_dim": 3,
                  "fused_channels": 6},
        "training": {"steps": 5, "eval_every": 2, "lr_max": 1e-3, "augment": True},
        "threads": 1,
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(tree))
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["train", "--config", str(config_path), "--output-dir", str(out)])
        assert code == 0
        blobs.append(((out / "checkpoint.bin").read_bytes(),
                      (out / "log.jsonl").read_bytes()))
    ok = blobs[0] == blobs[1]
    report(9, ok, "two identical train invocations produced bit-identical "
                  "checkpoints and logs")
