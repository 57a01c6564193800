"""Operation timing and layer spans, recorded from outside the package.

`OpTimer` keeps the wall time of each operation. `Tracer` also records a
span around every call into the functions listed in `LAYERS`. It does so by
replacing the module attribute through which the package itself looks the
function up (`model.py` calls `encode_plane` through its own namespace,
`encoder.py` calls `ops.conv2d_forward` through the `ops` module, and so on),
so nothing under `src/` changes. Spans are kept in memory; `layer_metrics`
reduces them to per-operation self times once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager


class OpTimer:
    """Wall time of each operation; `begin`/`end` bracket one operation."""

    def __init__(self):
        self.durations_ns = []
        self._start = None

    def begin(self):
        self._start = time.perf_counter_ns()

    def end(self):
        self.durations_ns.append(time.perf_counter_ns() - self._start)
        self._start = None

    def abort(self):
        """Drop the operation in progress, after it raised."""
        self._start = None


class Tracer(OpTimer):
    """OpTimer that also records nested spans.

    A span is [name, start_ns, end_ns, parent index or None]. Each operation
    is a root span named "op"; spans recorded outside an operation (set-up,
    the evaluation at the end of a training run) are kept but belong to no
    operation. Counters are summed only inside operations.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.op_roots = []
        self.counters = {}
        self._stack = []
        self._in_op = False

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter_ns()
        return span

    def begin(self):
        self._open("op")
        self._in_op = True

    def end(self):
        root = self._stack[0]
        while self._stack:
            span = self._close()
        self._in_op = False
        self.op_roots.append(root)
        self.durations_ns.append(span[2] - span[1])

    def abort(self):
        while self._stack:
            self._close()
        self._in_op = False

    def count(self, name, value):
        if self._in_op:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, counter=None):
        """`fn` with a span named `name` around each call.

        `counter(tracer, args, result)` runs after the span has closed, so
        what it does is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def layer_patches(self):
        """(owner, attribute, traced function) for every entry of LAYERS."""
        patches = []
        for owner_path, attr, name, counter in LAYERS:
            owner = _resolve(owner_path)
            patches.append((owner, attr, self.wrap(getattr(owner, attr), name, counter)))
        return patches


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _resolve(path):
    """'model' -> hexplane.model; 'model.HexPlaneModel' -> that class."""
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"hexplane.{module}")
    return getattr(owner, cls) if cls else owner


# ---------------------------------------------------------------------------
# Counters: work done, from argument and result shapes
# ---------------------------------------------------------------------------


def _count_projection(tracer, args, hexset):
    n = args[0].n
    tracer.count("projection.slots", n * len(hexset.planes))
    for plane in hexset.planes:
        tracer.count("projection.in_fov", int(plane.index.coords.in_fov.sum()))
        tracer.count("projection.winners", int((plane.index.winner >= 0).sum()))


def _count_conv_forward(tracer, args, result):
    # im2col GEMM: (out_h*out_w, 9*c_in) @ (9*c_in, c_out)
    y = result[0]
    tracer.count("encoder.conv_flop", 2 * y.shape[0] * y.shape[1] * args[1].size)


def _count_conv_backward(tracer, args, result):
    # two GEMMs of the forward's size: the weight gradient and dcols
    grad, cache = args
    wsize = 1
    for s in cache[2]:
        wsize *= s
    tracer.count("encoder.conv_flop", 4 * grad.shape[0] * grad.shape[1] * wsize)


def _count_valid(tracer, args, result):
    valid = result[1]
    tracer.count("attention.valid", int(valid.sum()))
    tracer.count("attention.slots", valid.size)


# (owner, attribute, span name, counter). The owner is the namespace the
# caller reads the name from; a function imported into two modules is
# wrapped in both under one span name.
LAYERS = [
    ("training", "augment", "cloud.augment", None),
    ("cloud", "synth_scene", "cloud.synth_scene", None),
    ("training", "hexplane_project", "projection.hexplane_project", _count_projection),
    ("projection", "hexplane_project", "projection.hexplane_project", _count_projection),
    ("training", "rasterize_labels", "projection.rasterize_labels", None),
    ("projection", "rasterize_labels", "projection.rasterize_labels", None),
    ("model", "gather_offsets", "projection.gather_offsets", None),
    ("projection", "gather_offsets", "projection.gather_offsets", None),
    ("model", "encode_plane", "encoder.encode_plane", None),
    ("model", "encode_plane_backward", "encoder.encode_plane_backward", None),
    ("model", "fuse_scales", "encoder.fuse_scales", None),
    ("model", "fuse_scales_backward", "encoder.fuse_scales_backward", None),
    ("ops", "conv2d_forward", "ops.conv2d_forward", _count_conv_forward),
    ("ops", "conv2d_backward", "ops.conv2d_backward", _count_conv_backward),
    ("ops", "bilinear_resize_forward", "ops.bilinear_resize_forward", None),
    ("ops", "bilinear_resize_backward", "ops.bilinear_resize_backward", None),
    ("ops", "bilinear_sample_forward", "ops.bilinear_sample_forward", None),
    ("ops", "bilinear_sample_backward", "ops.bilinear_sample_backward", None),
    ("model", "encode_points", "attention.encode_points", None),
    ("model", "encode_points_backward", "attention.encode_points_backward", None),
    ("model", "gather_plane_features", "attention.gather_plane_features", _count_valid),
    ("model", "gather_plane_features_backward",
     "attention.gather_plane_features_backward", None),
    ("model", "cross_attention_forward", "attention.cross_attention", None),
    ("model", "cross_attention_backward", "attention.cross_attention_backward", None),
    ("heads", "composite_loss", "heads.composite_loss", None),
    ("heads", "downsample_labels", "heads.downsample_labels", None),
    ("heads", "aux_head_forward", "heads.aux_head_forward", None),
    ("heads", "aux_head_backward", "heads.aux_head_backward", None),
    ("heads", "point_head_forward", "heads.point_head_forward", None),
    ("heads", "point_head_backward", "heads.point_head_backward", None),
    ("model.HexPlaneModel", "forward", "model.forward", None),
    ("model.HexPlaneModel", "backward", "model.backward", None),
    ("training", "adamw_step", "training.adamw_step", None),
    ("metrics.ConfusionMatrix", "update", "metrics.confusion", None),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in LAYERS))

# spans whose self time is reported as `<name>.self_ms` rather than `.ms`:
# they only orchestrate the layers nested in them
ORCHESTRATION = {"model.forward", "model.backward"}


def ms_key(name):
    return f"{name}.self_ms" if name in ORCHESTRATION else f"{name}.ms"


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(tracer):
    """Median self ms per operation and calls per operation of every span
    name, plus the share of operation time covered by named spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    op_of = [None] * len(spans)
    for i in tracer.op_roots:
        op_of[i] = i
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None and op_of[parent] is not None:
            op_of[i] = op_of[parent]
    per_op = {root: {} for root in tracer.op_roots}
    for i, (name, _, _, _) in enumerate(spans):
        root = op_of[i]
        if root is None or root == i:
            continue
        ns, calls = per_op[root].get(name, (0, 0))
        per_op[root][name] = (ns + selfs[i], calls + 1)

    ops = len(tracer.op_roots)
    out = {}
    for name in SPAN_NAMES:
        samples = [per_op[r].get(name, (0, 0)) for r in tracer.op_roots]
        out[ms_key(name)] = statistics.median(s[0] for s in samples) / 1e6 if ops else 0.0
        out[f"{name}.calls"] = sum(s[1] for s in samples) / ops if ops else 0.0
    total_ns = sum(spans[r][2] - spans[r][1] for r in tracer.op_roots)
    glue_ns = sum(selfs[r] for r in tracer.op_roots)
    out["trace.coverage"] = 1.0 - glue_ns / total_ns if total_ns else 0.0

    # set-up work runs outside operations: report its median per call
    synth = [selfs[i] for i, s in enumerate(spans) if s[0] == "cloud.synth_scene"]
    out["cloud.synth_scene.ms"] = statistics.median(synth) / 1e6 if synth else 0.0
    out["cloud.synth_scene.calls"] = float(len(synth))
    return out
