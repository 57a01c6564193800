"""The finite-difference harness itself."""

import hashlib

import numpy as np
import pytest

from hexplane.cli import main
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


# sha256 of the output of `hexplane gradcheck <op> --seed 0` and `--seed 1`
GRADCHECK_DIGESTS = {
    "linear": ("db3d82c6a11550962699ca9a49fefcc263579e380d3c6d1fa6506ba762dfc083",
               "4937a54480d1110b897634075b64b5d24bea80652c3e0532217abbc2fd38e532"),
    "leaky_relu": ("043ac0890d7f0ed150e98e9adc3d6f40e6166340fcfe5e3a48137f11cb08aca7",
                   "2ca2051a2fba2b929fc1ea1b4ad1c9f870944b7ef0a81d7d28029a651d52ef82"),
    "conv": ("964be41b2f3e7a693068d1210b385fc9909269b4b641e8ea82b8b755c65353dd",
             "03cc49f9b1d8378959a3d1138ddcc7e596840062f66519eaed83b5148ec17aee"),
    "bilinear_resize": ("ccb0691fc5617789c2adec1325394b9c53ef017accd147a9cd21927205c4a76e",
                        "8aaa8acb2e70ce7718bbe68ca246ad1dc0aaa26810c40ad36c2a65f7b8229ab4"),
    "bilinear_sample": ("d53817e3d4a1897c57637ad521e79e34488c88c53a1955eec4ef825db0e9a140",
                        "06eefb3774ed18d041ab749e91018857d55fd1fb4be1b69194f09260d6468e10"),
    "point_encoder": ("e8f0e86d00258e8b0b40489fb3129ac799d1e6a1f36b8ff50153be8909b360a5",
                      "4c859376aeb216293e8fd8c56c275b22c139585ef5fbc8e75fd10c924de6d3c3"),
    "attention": ("c5849dd23e77a3f0e829b4850975d6cee564eb880a6f822880f79320ef124ede",
                  "ce7e019f4a3d867f7263309573c8e15f7ce49ae59d0a84d2599a83360c3236f1"),
    "encoder": ("997cd6afe2a95469807fa2ff5a1df74d38b36fe4cfa53b7bf8446dc05ca5732a",
                "34db76ebe6e9236e576388c9128e80adc5ec9ed403ca5f43a1cc09de3fca3b21"),
    "loss": ("49026e753d0ceb2394e1e57cb57051efa73f012e2b5f03d2ae2994c25cfbebfd",
             "80b2d51d7f5f751f397d3a0cd5798d38e07aa04441ba1dbe52b9d67cf09c9653"),
    "model": ("f21e70b8373a557e4a72905949e54c5df71008c86f348750014a926bdfbb6330",
              "684a0921f33fc1f971a45719ddfff83bfe6108e872b5a2881b25a0c3be8697a8"),
}


@pytest.mark.parametrize("op", list(CHECKS))
def test_each_component_reports_exactly_its_groups_in_order(op, capsys):
    """Each component reports its groups, and `hexplane gradcheck` prints the
    bytes it printed when the pins were taken at seeds 0 and 1. The pins hold
    for numpy 2.4.6 on scipy-openblas, which the package runs on one thread;
    another numpy or BLAS may round differently."""
    if op == "model":
        model, _, _ = micro_model_instance(np.random.default_rng(0))
        want = list(model.parameters())
    else:
        want = GROUPS[op]
    outputs = []
    for seed in (0, 1):
        assert main(["gradcheck", op, "--seed", str(seed)]) == 0
        outputs.append(capsys.readouterr().out)
    # a header, one line per group, then the verdict
    assert [line.split()[0] for line in outputs[0].splitlines()[1:-1]] == want
    measured = tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs)
    assert measured == GRADCHECK_DIGESTS[op], f"measured {measured}"
