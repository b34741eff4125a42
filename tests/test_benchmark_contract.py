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
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import sepseg.autograd as ag
import sepseg.layers as layers
import sepseg.model as model
from sepseg.autograd import Rng, Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

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


# traced names whose code is deleted; the tracer skips them and their
# metrics read 0. Empty this set once the benchmark drops them.
RETIRED_TARGETS = {
    ("sepseg.autograd", "im2col"),
    ("sepseg.autograd", "matmul"),
}


@pytest.mark.parametrize("module,attr", [t for t in _simple_targets() + list(DIRECT_TARGETS)
                                         if t not in RETIRED_TARGETS])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module,attr", sorted(RETIRED_TARGETS))
def test_retired_name_is_gone_and_still_traced(module, attr):
    assert not hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    assert (module, attr) in _simple_targets()


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


# (mult-adds, bytes) of one forward over a size x size slice, from the
# benchmark's cost model: (variant, base depth) -> {size: counts}
MODEL_COUNTS = {
    ("proposed", 8): {64: (11800576, 8031288), 256: (188809216, 122985528)},
    ("baseline-unet", 8): {64: (58715136, 8488400), 256: (939442176, 104642000)},
    ("proposed", 64): {64: (593240064, 81123384), 256: (9491841024, 980113464)},
    ("baseline-unet", 64): {64: (3713986560, 182652432), 256: (59423784960, 934678032)},
}


@pytest.mark.parametrize("variant,base_depth", sorted(MODEL_COUNTS))
def test_cost_model_counts_the_model_spec(variant, base_depth):
    # every benchmark run, untraced too, prints these counts from the spec's
    # block_specs() and upsample_plan; a refactor that broke either would
    # fail every workload
    found = importlib.util.spec_from_file_location("costmodel", PERFBENCH / "costmodel.py")
    costmodel = importlib.util.module_from_spec(found)
    found.loader.exec_module(costmodel)
    got = {size: costmodel.model_counts(model.ModelSpec(variant=variant, base_depth=base_depth), size)
           for size in (64, 256)}
    assert got == MODEL_COUNTS[variant, base_depth]
