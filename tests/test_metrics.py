"""Confusion-matrix scores and interpolated average precision."""

import math

import numpy as np
import pytest

import oracles
from hexplane.metrics import (
    ConfusionMatrix,
    PRCurve,
    average_precision,
    box_iou,
    detection_scores,
    match_detections,
    mean_average_precision,
    report_json,
    report_table,
    segmentation_scores,
    REPORT_SCHEMA,
)


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        cm = ConfusionMatrix(3).update(labels, labels)
        assert np.array_equal(cm.counts, np.diag([2, 2, 1]))

    def test_all_ignore_batch_is_noop(self):
        cm = ConfusionMatrix(3)
        before = cm.counts.copy()
        cm.update(np.array([0, 1]), np.array([-1, -1]))
        assert np.array_equal(cm.counts, before)
        assert cm.ignored == 2

    def test_random_batch_matches_tally(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, size=500)
        labels = rng.integers(-1, 4, size=500)
        cm = ConfusionMatrix(4).update(preds, labels)
        want = np.zeros((4, 4), dtype=np.int64)
        for p, l in zip(preds, labels):
            if l != -1:
                want[l, p] += 1
        assert np.array_equal(cm.counts, want)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ConfusionMatrix(2).update(np.array([3]), np.array([0]))


class TestSegmentationScores:
    def test_perfect(self):
        labels = np.array([0, 1, 2, 2])
        scores = segmentation_scores(ConfusionMatrix(3).update(labels, labels))
        assert np.all(scores.per_class_iou == 1.0)
        assert scores.oa == 1.0 and scores.miou == 1.0

    def test_quarter_iou_case(self):
        # class 0: |A ∩ B| = 2, |A ∪ B| = 8 -> IoU 0.25
        labels = np.array([0] * 5 + [1] * 5)
        preds = np.array([0, 0, 1, 1, 1, 0, 0, 0, 1, 1])
        scores = segmentation_scores(ConfusionMatrix(2).update(preds, labels))
        assert scores.per_class_iou[0] == pytest.approx(0.25)

    def test_disjoint_sets_zero_iou(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([1, 1, 0, 0])
        scores = segmentation_scores(ConfusionMatrix(2).update(preds, labels))
        assert np.all(scores.per_class_iou == 0.0)

    def test_matches_set_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(10, 200))
            labels = rng.integers(-1, k, size=n)
            preds = rng.integers(0, k, size=n)
            if np.all(labels == -1):
                labels[0] = 0
            scores = segmentation_scores(ConfusionMatrix(k).update(preds, labels))
            want = oracles.segmentation_scores_reference(preds, labels, k)
            assert abs(scores.miou - want["miou"]) < 1e-12
            assert abs(scores.macc - want["macc"]) < 1e-12
            assert abs(scores.oa - want["oa"]) < 1e-12
            for cls, iou in want["iou"].items():
                assert abs(scores.per_class_iou[cls] - iou) < 1e-12

    def test_absent_class_excluded(self):
        labels = np.array([0, 0, 1])
        preds = np.array([0, 0, 1])
        scores = segmentation_scores(ConfusionMatrix(4).update(preds, labels))
        assert math.isnan(scores.per_class_iou[3])
        assert scores.miou == 1.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            segmentation_scores(ConfusionMatrix(3))

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            labels = rng.integers(0, 3, size=50)
            preds = rng.integers(0, 3, size=50)
            s = segmentation_scores(ConfusionMatrix(3).update(preds, labels))
            assert 0.0 <= s.oa <= 1.0 and 0.0 <= s.miou <= 1.0 and 0.0 <= s.macc <= 1.0

    def test_random_predictions_hit_chance_rate(self):
        rng = np.random.default_rng(4)
        k, n = 4, 20000
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        s = segmentation_scores(ConfusionMatrix(k).update(preds, labels))
        sigma = math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert abs(s.oa - 1 / k) < 5 * sigma


class TestAveragePrecision:
    def test_single_correct_detection(self):
        curve = PRCurve(scores=np.array([0.9]), is_tp=np.array([True]), num_gt=1)
        assert average_precision(curve) == 1.0

    def test_two_point_interpolation(self):
        # precision 1.0 at recall 0.5 and 0.5 at recall 1.0 -> AP 0.75
        curve = PRCurve(
            scores=np.array([0.9, 0.8, 0.7]),
            is_tp=np.array([True, False, True]),
            num_gt=2,
        )
        assert np.allclose(curve.recalls, [0.5, 0.5, 1.0])
        assert np.allclose(curve.precisions, [1.0, 0.5, 2 / 3])
        assert average_precision(curve) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_exact_two_level_case(self):
        curve = PRCurve(
            scores=np.array([0.9, 0.8, 0.7, 0.6]),
            is_tp=np.array([True, False, True, False]),
            num_gt=2,
        )
        # p_interp over recall {0.5, 1.0} is {1.0, 2/3}; brute force agrees
        want = oracles.average_precision_reference(
            [0.9, 0.8, 0.7, 0.6], [True, False, True, False], 2
        )
        assert average_precision(curve) == pytest.approx(want, abs=1e-12)

    def test_leading_false_positive(self):
        # FP ranked first, then the only TP: R = {1.0}, p_interp = 0.5
        curve = PRCurve(
            scores=np.array([0.9, 0.8]), is_tp=np.array([False, True]), num_gt=1
        )
        assert average_precision(curve) == 0.5

    def test_interpolated_three_quarters(self):
        # two FPs between the TPs: p_interp = (1.0, 0.5), AP = 0.75
        curve = PRCurve(
            scores=np.array([0.9, 0.7, 0.7, 0.5]),
            is_tp=np.array([True, False, False, True]),
            num_gt=2,
        )
        assert average_precision(curve) == pytest.approx(0.75)

    def test_matches_brute_force_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            scores = np.round(rng.uniform(size=n), 2)  # force score ties
            is_tp = rng.uniform(size=n) > 0.5
            num_gt = max(int(is_tp.sum()), 1) + int(rng.integers(0, 3))
            got = average_precision(PRCurve(scores=scores, is_tp=is_tp, num_gt=num_gt))
            want = oracles.average_precision_reference(scores.tolist(), is_tp.tolist(), num_gt)
            assert abs(got - want) < 1e-12

    def test_tie_reordering_invariance(self):
        rng = np.random.default_rng(6)
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.2])
        is_tp = np.array([True, False, True, True, False])
        base = average_precision(PRCurve(scores=scores, is_tp=is_tp, num_gt=4))
        for _ in range(10):
            perm = rng.permutation(5)
            shuffled = average_precision(
                PRCurve(scores=scores[perm], is_tp=is_tp[perm], num_gt=4)
            )
            assert shuffled == base

    def test_zero_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="zero ground truth"):
            PRCurve(scores=np.array([0.5]), is_tp=np.array([True]), num_gt=0)

    def test_no_true_positive_is_zero(self):
        curve = PRCurve(scores=np.array([0.5]), is_tp=np.array([False]), num_gt=2)
        assert average_precision(curve) == 0.0

    def test_recalls_non_decreasing(self):
        rng = np.random.default_rng(7)
        curve = PRCurve(
            scores=rng.uniform(size=25), is_tp=rng.uniform(size=25) > 0.4, num_gt=20
        )
        assert np.all(np.diff(curve.recalls) >= 0)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            curve = PRCurve(
                scores=rng.uniform(size=n),
                is_tp=rng.uniform(size=n) > 0.5,
                num_gt=max(1, int(rng.integers(1, 10))),
            )
            assert 0.0 <= average_precision(curve) <= 1.0


class TestMeanAveragePrecision:
    def test_single_class(self):
        assert mean_average_precision({0: 0.8}) == 0.8

    def test_pair(self):
        assert mean_average_precision({0: 1.0, 1: 0.5}) == 0.75

    def test_matches_oracle_mean(self):
        rng = np.random.default_rng(9)
        aps = {k: float(rng.uniform()) for k in range(7)}
        assert mean_average_precision(aps) == pytest.approx(
            sum(aps.values()) / len(aps)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision({})


class TestBoxMatching:
    def test_box_iou_identity_and_disjoint(self):
        a = [0, 0, 0, 2, 2, 2]
        assert box_iou(a, a) == 1.0
        assert box_iou(a, [5, 5, 5, 6, 6, 6]) == 0.0

    def test_box_iou_half_overlap(self):
        a = [0, 0, 0, 2, 1, 1]
        b = [1, 0, 0, 3, 1, 1]
        assert box_iou(a, b) == pytest.approx(1 / 3)

    def test_greedy_matcher_single_use(self):
        gt = [[0, 0, 0, 1, 1, 1]]
        preds = [[0, 0, 0, 1, 1, 1], [0.05, 0, 0, 1.05, 1, 1]]
        curves = match_detections(preds, [0.9, 0.8], [0, 0], gt, [0], 0.5)
        assert curves[0].is_tp.tolist() == [True, False]  # one GT, one use

    def test_detection_scores_thresholds(self):
        gt = [[0, 0, 0, 1, 1, 1], [2, 2, 2, 3, 3, 3]]
        preds = [[0, 0, 0, 1, 1, 1], [2.4, 2, 2, 3.4, 3, 3]]
        aps25, map25 = detection_scores(preds, [0.9, 0.8], [0, 1], gt, [0, 1], 0.25)
        aps50, map50 = detection_scores(preds, [0.9, 0.8], [0, 1], gt, [0, 1], 0.5)
        assert aps25[0] == 1.0 and aps25[1] == 1.0
        assert aps50[1] == 0.0  # 0.43 IoU misses the 0.5 threshold
        assert map25 == 1.0 and map50 == 0.5


class TestReports:
    def test_json_matches_schema(self):
        import jsonschema

        labels = np.array([0, 1, 1, 2])
        preds = np.array([0, 1, 0, 2])
        scores = segmentation_scores(ConfusionMatrix(4).update(preds, labels))
        report = report_json(scores, aps={0: 1.0, 1: 0.5})
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["map"] == 0.75
        assert report["per_class_iou"][3] is None

    def test_table_mentions_every_metric(self):
        labels = np.array([0, 1])
        scores = segmentation_scores(ConfusionMatrix(2).update(labels, labels))
        table = report_table(scores)
        for token in ("miou", "macc", "oa"):
            assert token in table
