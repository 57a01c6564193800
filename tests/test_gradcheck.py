"""The finite-difference harness itself."""

import numpy as np
import pytest

from hexplane.gradcheck import (
    CHECKS,
    finite_difference,
    grad_check,
    max_relative_error,
    micro_model_instance,
)


def test_linear_layer_is_exact_to_float_noise():
    for seed in range(5):
        report = grad_check("linear", seed=seed)
        assert report.max_error < 1e-8, (seed, report.errors)


def test_softmax_composed_op_within_loose_tolerance():
    report = grad_check("attention", seed=0)
    assert report.passed(1e-4)
    assert report.max_error > 0  # FD noise is nonzero, the bound is honest


def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown gradcheck op"):
        grad_check("not_a_thing")


def test_report_lines_flag_failures():
    report = grad_check("conv", seed=1)
    lines = report.lines(tol=1e-20)  # impossible tolerance
    assert any("FAIL" in line for line in lines)
    assert not report.passed(1e-20)


def test_non_finite_probe_detected():
    x = np.array([1.0, np.inf])

    def fn():
        return float(x.sum())

    with pytest.raises(ValueError, match="non-finite"):
        finite_difference(fn, x)


def test_relative_error_symmetric_and_zero_safe():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5


GROUPS = {
    "linear": ["input", "weight", "bias"],
    "leaky_relu": ["input"],
    "conv": ["input", "weight", "bias"],
    "bilinear_resize": ["input"],
    "bilinear_sample": ["fmap"],
    "point_encoder": ["feats", "w1", "b1", "w2", "b2"],
    "attention": ["point_feats", "gathered", "w_query", "w_key", "w_value", "w_pos",
                  "w_out"],
    "encoder": ["raster", "conv0/W", "conv0/b", "conv1/W", "conv1/b", "conv2/W",
                "conv2/b", "mix/W", "mix/b"],
    "loss": ["logits"],
}


@pytest.mark.parametrize("op", list(CHECKS))
def test_each_component_reports_exactly_its_groups_in_order(op):
    if op == "model":
        model, _, _ = micro_model_instance(np.random.default_rng(0))
        want = list(model.parameters())
    else:
        want = GROUPS[op]
    assert list(grad_check(op, seed=0).errors) == want
