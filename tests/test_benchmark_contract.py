"""The names the benchmark's tracer wraps must exist in the program, with
the call signatures the tracer uses.

``perfbench/tracing.py`` replaces sepseg functions by identity and skips a
name it cannot find, so its per-layer metrics for that name then read 0
without any error. These tests read the tracer's target table (without
importing the benchmark) and check every name against the package, so a
rename or an inlined call fails here instead of blinding the trace.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import sepseg.autograd as ag
import sepseg.layers as layers
import sepseg.model as model
from sepseg.autograd import Rng, Tensor

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# patched by name in Recorder.install, outside SIMPLE_TARGETS
DIRECT_TARGETS = (
    ("sepseg.layers", "conv2d"),
    ("sepseg.autograd", "_make"),
    ("sepseg.autograd", "backward"),
    ("sepseg.model", "forward"),
    ("sepseg.train", "_draw_batch"),
    ("sepseg.train", "adam_step"),
)


def _simple_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SIMPLE_TARGETS" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"SIMPLE_TARGETS not found in {TRACING}")


@pytest.mark.parametrize("module,attr", _simple_targets() + list(DIRECT_TARGETS))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_layers_build_nodes_through_autograd_make():
    # the tracer swaps _make in every sepseg module that holds it
    assert layers._make is ag._make


def test_separable_conv_reaches_both_halves_through_module_globals(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(layers, name, wrapper)

    spy("_depthwise_conv2d", layers._depthwise_conv2d)
    spy("conv2d", layers.conv2d)
    p = layers.init_separable_conv2d(3, 4, 3, Rng(0), np.float32)
    layers.separable_conv2d(Tensor(np.ones((1, 3, 8, 8), dtype=np.float32)), p)
    assert calls == ["_depthwise_conv2d", "conv2d"]


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_forward_reaches_batch_norm_and_max_pool_through_model_globals(monkeypatch, mode):
    # the tracer's batch-norm and max-pool spans wrap these names in the
    # model module; a fast path that bypassed them would read 0
    calls = []

    def spy(name):
        fn = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(model, name, wrapper)

    spy("batch_norm")
    spy("max_pool_2x2")
    m = model.build_model(model.ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
    x = Tensor(np.random.default_rng(0).uniform(size=(2, 1, 16, 16)).astype(np.float32))
    model.forward(m, x, mode, Rng(1, 0))
    assert calls.count("batch_norm") == 9
    assert calls.count("max_pool_2x2") == 4


def _positional_names(fn):
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


# the tracer calls these positionally: _make(data, parents, backward_fn),
# backward(root), and reads forward's mode from args[2]
def test_make_takes_data_parents_backward_fn_positionally():
    assert _positional_names(ag._make) == ["data", "parents", "backward_fn"]


def test_backward_takes_the_root_positionally():
    assert _positional_names(ag.backward) == ["root"]


def test_forward_takes_mode_third():
    assert _positional_names(model.forward)[:3] == ["model", "x", "mode"]
