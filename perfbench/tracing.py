"""Spans around the public functions of the sepseg modules.

The benchmark never edits the program: it replaces module attributes of
the loaded ``sepseg`` package with timing wrappers and puts the
originals back afterwards. A function is replaced in every ``sepseg``
module that holds it, because ``model``, ``train`` and ``cli`` import
names directly, and ``layers.separable_conv2d`` reaches ``conv2d`` and
``_depthwise_conv2d`` through the ``layers`` globals.

Backward time is attributed through the graph: every node created while
a span is open gets its backward closure wrapped, and the resulting
``<span>.bwd`` span remembers the names of all spans that were open when
the node was made. An op's backward time is the time of the backward
closures of every node it created, directly or through nested ops.

Spans are kept in memory and written out as JSON lines at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time

from costmodel import op_counts

LAYER_OPS = (
    "depthwise",
    "separable_conv2d",
    "conv2d_1x1",
    "conv2d_3x3",
    "batch_norm",
    "max_pool_2x2",
    "bilinear_upsample_2x",
    "pixel_shuffle",
    "dropout",
    "softmax_channels",
)

# (module, attribute, span name) for every wrapped function whose span
# name does not depend on its arguments
SIMPLE_TARGETS = (
    ("sepseg.autograd", "im2col", "autograd.im2col"),
    ("sepseg.autograd", "matmul", "autograd.matmul"),
    ("sepseg.layers", "_depthwise_conv2d", "layers.depthwise"),
    ("sepseg.layers", "separable_conv2d", "layers.separable_conv2d"),
    ("sepseg.layers", "batch_norm", "layers.batch_norm"),
    ("sepseg.layers", "max_pool_2x2", "layers.max_pool_2x2"),
    ("sepseg.layers", "bilinear_upsample_2x", "layers.bilinear_upsample_2x"),
    ("sepseg.layers", "pixel_shuffle", "layers.pixel_shuffle"),
    ("sepseg.layers", "dropout", "layers.dropout"),
    ("sepseg.layers", "softmax_channels", "layers.softmax_channels"),
    ("sepseg.train", "clip_gradients", "train.clip"),
    ("sepseg.train", "_mean_dice", "train.eval"),
    ("sepseg.preprocess", "augment_pair", "preprocess.augment"),
    ("sepseg.preprocess", "window_hu", "preprocess.window"),
    ("sepseg.preprocess", "histogram_equalize", "preprocess.equalize"),
    ("sepseg.preprocess", "resize_bilinear", "preprocess.resize"),
    ("sepseg.metrics", "weighted_cross_entropy", "metrics.loss"),
    ("sepseg.metrics", "probs_to_mask", "metrics.probs_to_mask"),
    ("sepseg.data", "read_nifti", "data.read_nifti"),
    ("sepseg.data", "load_checkpoint", "data.load_checkpoint"),
    ("sepseg.data", "save_checkpoint", "data.save_checkpoint"),
    ("sepseg.data", "write_pgm", "data.write_pgm"),
    ("sepseg.data", "generate_phantom", "data.phantom"),
)

# per-layer metrics in report order, with their units
PER_LAYER = (
    [
        ("autograd.backward_ms", "ms"),
        ("autograd.graph_nodes", "count"),
        ("autograd.im2col.fwd_ms", "ms"),
        ("autograd.im2col.bwd_ms", "ms"),
        ("autograd.matmul.fwd_ms", "ms"),
        ("autograd.matmul.bwd_ms", "ms"),
    ]
    + [
        (f"layers.{op}.{field}", unit)
        for op in LAYER_OPS
        for field, unit in (
            ("calls", "count"),
            ("fwd_ms", "ms"),
            ("bwd_ms", "ms"),
            ("madds", "madds"),
            ("bytes", "B_computed"),
        )
    ]
    + [
        ("model.forward_train_ms", "ms"),
        ("model.forward_infer_ms", "ms"),
        ("model.params", "count"),
        ("model.madds", "madds"),
        ("train.adam_ms", "ms"),
        ("train.clip_ms", "ms"),
        ("train.eval_ms", "ms"),
        ("preprocess.augment_ms", "ms"),
        ("preprocess.slice_prep_ms", "ms"),
        ("metrics.loss.fwd_ms", "ms"),
        ("metrics.loss.bwd_ms", "ms"),
        ("metrics.probs_to_mask_ms", "ms"),
        ("data.read_nifti_ms", "ms"),
        ("data.read_nifti_mb_per_s", "MB/s"),
        ("data.load_checkpoint_ms", "ms"),
        ("data.save_checkpoint_ms", "ms"),
        ("data.checkpoint_bytes", "B"),
        ("data.write_pgm_ms", "ms"),
        ("data.phantom_ms", "ms"),
        ("cli.self_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
)

COUNT_UNITS = ("count", "madds", "B_computed", "B")


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end", "child", "owners", "info")

    def __init__(self, name, parent, unit, start, owners=None):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = start
        self.end = None
        self.child = 0.0
        self.owners = owners
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Recorder:
    """Iteration and unit boundaries, plus spans when ``traced``.

    A unit is one iteration on the training workload and one CLI command
    (one volume) on the inference workloads; spans of one unit share its
    id. Untraced, only the start and end of each training iteration are
    clocked (two clock reads per iteration).
    """

    def __init__(self, traced):
        self.traced = traced
        self.clock = time.perf_counter
        self.spans = []
        self.stack = []
        self.unit = None
        self.units = []
        self.iter_ms = []
        self._iter_start = None
        self._iter_span = None
        self._cmd_unit = None
        self._patched = []

    # -- spans ----------------------------------------------------------

    def open(self, name, owners=None):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, self.unit, self.clock(), owners)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        """Close ``span`` and any span still open above it."""
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            top.end = now
            if top.parent is not None:
                top.parent.child += top.duration
            if top is span:
                return

    def begin_unit(self, kind):
        self.unit = (kind, len(self.units))
        self.units.append(self.unit)
        return self.unit

    def command(self, fn, *args):
        """Run one CLI command as a unit of its own, inside a cli.main span."""
        self._cmd_unit = self.begin_unit("cmd")
        if not self.traced:
            return fn(*args)
        span = self.open("cli.main")
        try:
            return fn(*args)
        finally:
            self.close(span)

    # -- patching -------------------------------------------------------

    def install(self):
        import sepseg.autograd as ag
        import sepseg.layers as layers
        import sepseg.model as model
        import sepseg.train as train

        self._replace(train._draw_batch, self._iteration_start(train._draw_batch))
        self._replace(train.adam_step, self._iteration_end(train.adam_step))
        if not self.traced:
            return
        for module, attr, name in SIMPLE_TARGETS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:  # gone from the program: its metrics read 0
                continue
            counted = name.startswith("layers.")
            self._replace(fn, self._span_wrapper(fn, lambda a, k, n=name: n, counted))
        self._replace(layers.conv2d, self._span_wrapper(layers.conv2d, _conv_name, True))
        self._replace(model.forward, self._span_wrapper(model.forward, _forward_name, False))
        self._replace(ag.backward, self._backward_wrapper(ag.backward))
        self._replace(ag._make, self._make_wrapper(ag._make))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Originals in place, so that the benchmark's own calls into
        sepseg are not recorded."""
        if not self._patched:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _replace(self, orig, repl):
        functools.update_wrapper(repl, orig)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sepseg" and not mod_name.startswith("sepseg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, repl)
                    self._patched.append((module, attr, orig))

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name_of, counted):
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if counted:
                    span.info = op_counts(name.split(".", 1)[1], args, kwargs)
                elif name == "data.read_nifti":
                    span.info = os.path.getsize(args[0])

        return wrapper

    def _iteration_start(self, fn):
        def wrapper(*args, **kwargs):
            self._iter_start = self.clock()
            if self.traced:
                self.begin_unit("iter")
                self._iter_span = self.open("train.iteration")
            return fn(*args, **kwargs)

        return wrapper

    def _iteration_end(self, fn):
        def wrapper(*args, **kwargs):
            span = self.open("train.adam") if self.traced else None
            try:
                return fn(*args, **kwargs)
            finally:
                if span is not None:
                    self.close(span)
                    self.close(self._iter_span)
                    self.unit = self._cmd_unit
                self.iter_ms.append((self.clock() - self._iter_start) * 1e3)

        return wrapper

    def _backward_wrapper(self, fn):
        def wrapper(root):
            nodes = _count_nodes(root)
            span = self.open("autograd.backward")
            span.info = nodes
            try:
                return fn(root)
            finally:
                self.close(span)

        return wrapper

    def _make_wrapper(self, fn):
        def wrapper(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            if out._backward is not None and self.stack:
                out._backward = self._traced_closure(out._backward)
            return out

        return wrapper

    def _traced_closure(self, bwd):
        owners = tuple(s.name for s in self.stack)
        name = owners[-1] + ".bwd"

        def traced(g):
            span = self.open(name, owners)
            try:
                bwd(g)
            finally:
                self.close(span)

        return traced

    # -- output ---------------------------------------------------------

    def write_spans(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "unit": None if s.unit is None else f"{s.unit[0]}{s.unit[1]}",
                    "start": s.start,
                    "end": s.end,
                }) + "\n")


def _conv_name(args, kwargs):
    k = args[1].weight.shape[2]
    return f"layers.conv2d_{k}x{k}"


def _forward_name(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "infer")
    return f"model.forward[{mode}]"


def _count_nodes(root):
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


# -- aggregation ----------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0


def layer_metrics(rec, unit_kind, slices_per_cmd, statics, overhead_pct):
    """Every per-layer metric of PER_LAYER from the spans of ``rec``.

    Per-unit metrics (calls, fwd/bwd time, counts of ops, im2col and
    matmul, loss backward) are the median over units of ``unit_kind`` of
    the unit's total; units without a call count as zero. Per-call
    metrics are the median over calls.
    """
    units = [u for u in rec.units if u[0] == unit_kind]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    bwd_spans = [s for s in rec.spans if s.owners is not None]

    def per_unit(values_by_unit):
        return _median([values_by_unit.get(u, 0) for u in units])

    def unit_sum(name, value):
        acc = {}
        for s in by_name.get(name, ()):
            acc[s.unit] = acc.get(s.unit, 0) + value(s)
        return per_unit(acc)

    def bwd_sum(name):
        acc = {}
        for s in bwd_spans:
            if name in s.owners:
                acc[s.unit] = acc.get(s.unit, 0) + s.duration * 1e3
        return per_unit(acc)

    def per_call(name, value=lambda s: s.duration * 1e3):
        return _median([value(s) for s in by_name.get(name, ())])

    def per_cmd(names, value):
        acc = {}
        for name in names:
            for s in by_name.get(name, ()):
                acc[s.unit] = acc.get(s.unit, 0) + value(s)
        return _median(list(acc.values()))

    ms = lambda s: s.duration * 1e3
    out = {
        "autograd.backward_ms": per_call("autograd.backward"),
        "autograd.graph_nodes": per_call("autograd.backward", lambda s: s.info),
    }
    for op in ("im2col", "matmul"):
        out[f"autograd.{op}.fwd_ms"] = unit_sum(f"autograd.{op}", ms)
        out[f"autograd.{op}.bwd_ms"] = bwd_sum(f"autograd.{op}")
    for op in LAYER_OPS:
        name = f"layers.{op}"
        out[f"{name}.calls"] = unit_sum(name, lambda s: 1)
        out[f"{name}.fwd_ms"] = unit_sum(name, ms)
        out[f"{name}.bwd_ms"] = bwd_sum(name)
        out[f"{name}.madds"] = unit_sum(name, lambda s: s.info[0])
        out[f"{name}.bytes"] = unit_sum(name, lambda s: s.info[1])
    out["model.forward_train_ms"] = per_call("model.forward[train]")
    out["model.forward_infer_ms"] = per_call("model.forward[infer]")
    out["model.params"] = statics["params"]
    out["model.madds"] = statics["madds"]
    out["train.adam_ms"] = per_call("train.adam")
    out["train.clip_ms"] = per_call("train.clip")
    # two calls per command: the training split and the validation split
    out["train.eval_ms"] = per_cmd(["train.eval"], ms)
    out["preprocess.augment_ms"] = per_call("preprocess.augment")
    prep = per_cmd(["preprocess.window", "preprocess.equalize", "preprocess.resize"], ms)
    out["preprocess.slice_prep_ms"] = prep / slices_per_cmd if prep else 0
    out["metrics.loss.fwd_ms"] = per_call("metrics.loss")
    out["metrics.loss.bwd_ms"] = bwd_sum("metrics.loss")
    out["metrics.probs_to_mask_ms"] = per_call("metrics.probs_to_mask")
    out["data.read_nifti_ms"] = per_call("data.read_nifti")
    out["data.read_nifti_mb_per_s"] = per_call(
        "data.read_nifti", lambda s: s.info / 1e6 / s.duration)
    out["data.load_checkpoint_ms"] = per_call("data.load_checkpoint")
    out["data.save_checkpoint_ms"] = per_call("data.save_checkpoint")
    out["data.checkpoint_bytes"] = statics["checkpoint_bytes"]
    out["data.write_pgm_ms"] = per_call("data.write_pgm")
    out["data.phantom_ms"] = per_call("data.phantom")
    out["cli.self_ms"] = per_call("cli.main", lambda s: s.self_time * 1e3)
    out["trace.overhead_pct"] = overhead_pct
    for name, unit in PER_LAYER:
        if unit in COUNT_UNITS and float(out[name]).is_integer():
            out[name] = int(out[name])
    return out


def self_time_table(rec, root, top=15):
    """Rows (name, calls, self ms, share of root) by descending self time,
    plus the sum of all self times, which equals the root's duration."""
    acc = {}
    for s in rec.spans:
        calls, total = acc.get(s.name, (0, 0.0))
        acc[s.name] = (calls + 1, total + s.self_time)
    wall = root.duration
    rows = sorted(acc.items(), key=lambda kv: -kv[1][1])
    table = [(name, calls, t * 1e3, t / wall) for name, (calls, t) in rows[:top]]
    return table, sum(t for _, t in acc.values()) * 1e3, wall * 1e3
