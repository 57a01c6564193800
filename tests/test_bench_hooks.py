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
