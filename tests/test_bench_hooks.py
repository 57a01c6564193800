"""The benchmark's layer spans still find every package function they wrap.

`perfbench/spans.py` replaces `src` functions by (module, attribute); a
rename inside the package would otherwise break only the traced benchmark
runs. The module is imported read-only and nothing is patched.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
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
