"""The benchmark still finds, and can run, what it uses of the package.

`perfbench/spans.py` replaces `src` functions by (module, attribute), and
`perfbench/workloads.py` calls the package by name; a change inside the
package would otherwise break only the benchmark runs. The modules are
imported read-only; only the workloads' own step hooks patch anything.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Imports perfbench modules afresh, writing no bytecode next to them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load(name):
        monkeypatch.delitem(sys.modules, name, raising=False)
        return importlib.import_module(name)

    return load


def test_every_traced_layer_resolves(perfbench):
    spans = perfbench("spans")
    patches = spans.Tracer().layer_patches()
    assert len(patches) == len(spans.LAYERS)
    for owner, attr, traced in patches:
        assert traced.__wrapped__ is getattr(owner, attr)


def test_train_toy_calls_every_hooked_step_function(monkeypatch):
    # `perfbench/workloads.py::TrainOcclusion.measure` brackets each step by
    # wrapping these three names; a step that bypassed one would leave the
    # untraced benchmark without timings or losses
    import dataclasses

    from hexplane import config as cfg
    from hexplane import heads, training

    tree = cfg.load_config(PERFBENCH.parent / "configs" / "occlusion_transfer.yaml")
    model_config = cfg.build_model_config(tree, cfg.scene_num_classes(tree))
    settings = dataclasses.replace(cfg.build_train_settings(tree), steps=2)
    calls = []
    for owner, name in [(training, "lr_schedule"), (training, "adamw_step"),
                        (heads, "composite_loss")]:
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    training.train_toy(
        cfg.build_scene(tree["scene"]), model_config, settings,
        cfg.plane_spec_builder(tree["planes"]),
        eval_cloud=cfg.build_scene(tree["eval_scene"]), seed=tree["seed"],
    )
    step = ["lr_schedule", "composite_loss", "adamw_step"]
    assert calls == step * 2 + ["lr_schedule"]  # the final eval asks for an lr


def test_every_workload_runs_one_operation_without_failure(perfbench):
    spans = perfbench("spans")
    workloads = perfbench("workloads")
    sizes = workloads.Sizes(train_steps=2, project_points=3000, setup_repeats=1)
    for name, workload in workloads.WORKLOADS.items():
        tally = workload(3, sizes).measure(spans.OpTimer(), 0.0)
        assert tally.attempted > 0 and tally.failed == 0, name


def test_every_workload_runs_one_traced_operation_with_its_counters(perfbench):
    # the span counters read argument and result layouts, such as the weight
    # shape at index 2 of the conv cache; only a traced run calls them, and a
    # counter that raises fails the operation
    spans = perfbench("spans")
    workloads = perfbench("workloads")
    sizes = workloads.Sizes(train_steps=2, project_points=3000, setup_repeats=1)
    for name, workload in workloads.WORKLOADS.items():
        tracer = spans.Tracer()
        with spans.patched(tracer.layer_patches()):
            tally = workload(3, sizes).measure(tracer, 0.0)
        assert tally.attempted > 0 and tally.failed == 0, name
        if name != "project_large":  # projection only: no conv runs or gather
            assert tracer.counters["encoder.conv_flop"] > 0, name
            assert tracer.counters.get("attention.valid", 0) > 0, name
