"""Heads, composite loss, optimizer, and learning-rate schedule."""

import math

import numpy as np
import pytest

import oracles
from hexplane import ops
from hexplane.heads import (
    IGNORE,
    LossReport,
    aux_head_forward,
    composite_loss,
    downsample_labels,
    point_head_forward,
)
from hexplane.training import adamw_init, adamw_step, lr_schedule


class TestPointHead:
    def test_zero_features_zero_bias(self):
        logits, _ = point_head_forward(np.zeros((5, 8)), np.ones((8, 3)), np.zeros(3))
        assert np.all(logits == 0.0)

    def test_argmax_is_prediction(self):
        rng = np.random.default_rng(0)
        logits, _ = point_head_forward(
            rng.normal(size=(20, 8)), rng.normal(size=(8, 4)), rng.normal(size=4)
        )
        preds = logits.argmax(axis=1)
        assert preds.shape == (20,)
        assert preds.min() >= 0 and preds.max() < 4

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 6))
        w = rng.normal(size=(6, 3))
        b = rng.normal(size=3)
        logits, _ = point_head_forward(x, w, b)
        want = np.array([[float(x[i] @ w[:, k]) + b[k] for k in range(3)]
                         for i in range(9)])
        assert np.abs(logits - want).max() < 1e-12


class TestAuxHead:
    def test_zero_case(self):
        logits, _ = aux_head_forward(np.zeros((4, 6, 8)), np.ones((8, 3)), np.zeros(3))
        assert np.all(logits == 0.0)

    def test_shape_contract(self):
        rng = np.random.default_rng(2)
        logits, _ = aux_head_forward(
            rng.normal(size=(16, 128, 64)), rng.normal(size=(64, 5)), np.zeros(5)
        )
        assert logits.shape == (16, 128, 5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        fmap = rng.normal(size=(3, 4, 6))
        w = rng.normal(size=(6, 2))
        b = rng.normal(size=2)
        logits, _ = aux_head_forward(fmap, w, b)
        for i in range(3):
            for j in range(4):
                want = fmap[i, j] @ w + b
                assert np.abs(logits[i, j] - want).max() < 1e-12


class TestCompositeLoss:
    def test_hand_computed_case(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        labels = np.array([0, 1, 0])
        report, d_point, _ = composite_loss(logits, labels, [], [], 0.0)
        want = (
            math.log1p(math.exp(-1.0))
            + math.log1p(math.exp(-1.0))
            + math.log1p(math.exp(-2.0))
        ) / 3.0
        assert abs(report.main - want) < 1e-12
        assert abs(report.main - oracles.cross_entropy_reference(logits, labels)) < 1e-12

    def test_high_margin_loss_vanishes(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        logits[np.arange(4), labels] = 20.0
        report, _, _ = composite_loss(logits, labels, [], [], 0.0)
        assert report.main < 1e-8

    def test_zero_aux_weight_total_equals_main(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        aux = [rng.normal(size=(4, 4, 3))]
        aux_lab = [rng.integers(0, 3, size=(4, 4))]
        report, _, d_aux = composite_loss(logits, labels, aux, aux_lab, 0.0)
        assert report.total == report.main
        assert np.all(d_aux[0] == 0.0)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        aux = [rng.normal(size=(4, 4, 3)) for _ in range(6)]
        aux_lab = [rng.integers(-1, 3, size=(4, 4)) for _ in range(6)]
        report, _, _ = composite_loss(logits, labels, aux, aux_lab, 0.4)
        assert abs(report.total - (report.main + 0.4 * sum(report.aux))) < 1e-12

    def test_ignored_rows_skip_loss_and_grad(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(6, 3))
        labels = np.array([0, IGNORE, 2, IGNORE, 1, 0])
        report, d_point, _ = composite_loss(logits, labels, [], [], 0.0)
        assert np.all(d_point[labels == IGNORE] == 0.0)
        want = oracles.cross_entropy_reference(logits, labels)
        assert abs(report.main - want) < 1e-12

    def test_all_ignore_rejected(self):
        logits = np.zeros((3, 2))
        labels = np.full(3, IGNORE)
        with pytest.raises(ValueError, match="IGNORE"):
            composite_loss(logits, labels, [], [], 0.0)

    def test_loss_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        aux = [rng.normal(size=(3, 3, 4))]
        aux_lab = [rng.integers(-1, 4, size=(3, 3))]

        from hexplane.gradcheck import finite_difference, max_relative_error

        def objective():
            report, _, _ = composite_loss(logits, labels, aux, aux_lab, 0.4)
            return report.total

        _, d_point, d_aux = composite_loss(logits, labels, aux, aux_lab, 0.4)
        assert max_relative_error(d_point, finite_difference(objective, logits)) < 1e-4
        assert max_relative_error(d_aux[0], finite_difference(objective, aux[0])) < 1e-4


class TestDownsampleLabels:
    def test_majority_vote(self):
        img = np.zeros((4, 4), dtype=np.int64)
        img[:2, :] = 1
        img[2:, :2] = 2
        out = downsample_labels(img, 3)
        assert out[0, 0] == 1  # eight votes for 1, four each for 0 and 2

    def test_tie_goes_to_smallest_class(self):
        img = np.array([[2] * 4, [2] * 4, [1] * 4, [1] * 4])
        out = downsample_labels(img, 3)
        assert out[0, 0] == 1

    def test_all_ignore_block_stays_ignore(self):
        img = np.full((4, 4), IGNORE, dtype=np.int64)
        out = downsample_labels(img, 3)
        assert out[0, 0] == IGNORE

    def test_partial_edge_blocks(self):
        img = np.full((6, 5), 1, dtype=np.int64)
        out = downsample_labels(img, 2)
        assert out.shape == (2, 2)
        assert np.all(out == 1)


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        rng = np.random.default_rng(8)
        params = {"w": rng.normal(size=(4, 3))}
        before = params["w"].copy()
        state = adamw_init(params)
        adamw_step(params, {"w": np.zeros((4, 3))}, state, lr=3.5e-4, weight_decay=0.01,
                   beta1=0.9, beta2=0.999)
        assert np.array_equal(params["w"], before * (1.0 - 3.5e-4 * 0.01))

    def test_first_step_matches_hand_formula(self):
        params = {"w": np.array([[1.0]])}
        grads = {"w": np.array([[0.5]])}
        state = adamw_init(params)
        adamw_step(params, grads, state, lr=3.5e-4, weight_decay=0.01, beta1=0.9, beta2=0.999)
        # frozen from the hand evaluation of the bias-corrected update
        assert params["w"][0, 0] == pytest.approx(0.999646500007, abs=1e-12)

    def test_first_step_general(self):
        rng = np.random.default_rng(9)
        w0 = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 4))
        params = {"w": w0.copy()}
        state = adamw_init(params)
        adamw_step(params, {"w": g}, state, lr=1e-3, weight_decay=0.0, beta1=0.9, beta2=0.999)
        want = w0 - 1e-3 * g / (np.abs(g) + 1e-8)  # m_hat = g, sqrt(v_hat) = |g|
        assert np.abs(params["w"] - want).max() < 1e-12

    def test_bit_deterministic_over_100_steps(self):
        def run():
            rng = np.random.default_rng(10)
            params = {"a": rng.normal(size=(6, 6)), "b": rng.normal(size=6)}
            state = adamw_init(params)
            for step in range(100):
                grads = {k: np.sin(v + step) for k, v in params.items()}
                adamw_step(params, grads, state, lr=1e-3, weight_decay=0.01, beta1=0.9,
                           beta2=0.999)
            return params

        a, b = run(), run()
        assert np.array_equal(a["a"], b["a"]) and np.array_equal(a["b"], b["b"])

    def test_non_finite_gradient_names_parameter(self):
        params = {"bad": np.ones(3)}
        state = adamw_init(params)
        with pytest.raises(ValueError, match="bad"):
            adamw_step(params, {"bad": np.array([1.0, np.nan, 0.0])}, state, lr=1e-3,
                       weight_decay=0.01, beta1=0.9, beta2=0.999)


class TestLrSchedule:
    def test_boundaries_and_peak(self):
        assert lr_schedule(0, 100, 1.0) == pytest.approx(1.0 / 25)
        assert lr_schedule(30, 100, 1.0) == pytest.approx(1.0)
        assert lr_schedule(100, 100, 1.0) == pytest.approx(1.0 / 100)

    def test_matches_independent_cosine(self):
        for step in (31, 45, 60, 77, 99):
            assert lr_schedule(step, 100, 2e-3) == pytest.approx(
                oracles.one_cycle_reference(step, 100, 2e-3), rel=1e-12
            )

    def test_warmup_is_linear(self):
        lr_a = lr_schedule(10, 100, 1.0)
        lr_b = lr_schedule(20, 100, 1.0)
        lr_c = lr_schedule(30, 100, 1.0)
        assert lr_b - lr_a == pytest.approx(lr_c - lr_b)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            lr_schedule(101, 100, 1.0)
        with pytest.raises(ValueError, match="outside"):
            lr_schedule(-1, 100, 1.0)

    def test_single_peak(self):
        values = [lr_schedule(s, 200, 1.0) for s in range(201)]
        peak = int(np.argmax(values))
        assert peak == 60
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(peak))
        assert all(values[i] >= values[i + 1] - 1e-15 for i in range(peak, 200))
