"""Finite-difference verification suite for every differentiable layer.

Each case is a function ``case(rng) -> (call, arrays)``. ``arrays`` is an
ordered dict of float64 arrays keyed by the names the CLI prints; ``call``
takes one Tensor per array, in that order, and returns the layer output.
``run_suite`` checks the analytic gradient of every array in turn against
central differences, with the other arrays held fixed. A non-scalar output
is reduced to a scalar by a fixed random projection (see ``project``),
which the driver draws from the case's ``rng`` after the case's own draws.

Draw order is part of a case: the case's own draws, in the order it makes
them, then the projection. Reordering the draws changes every number the
suite reports. Used by the ``gradcheck`` CLI command and the acceptance
tests.
"""

from __future__ import annotations

import zlib

import numpy as np

from .autograd import Rng, Tensor, _accum, _make, add_relu, concat, grad_check, no_grad, relu
from .layers import (
    BatchNormParams,
    Conv2dParams,
    SeparableConv2dParams,
    batch_norm,
    bilinear_upsample_2x,
    conv2d,
    dropout,
    max_pool_2x2,
    pixel_shuffle,
    separable_conv2d,
    softmax_channels,
)
from .metrics import weighted_cross_entropy
from .model import ResNetBlockSpec, _init_block, resnet_block_forward

TOLERANCE = 1e-4
INSTANCES = 5


def _normal(call, **shapes):
    """A case whose arrays are standard-normal draws of ``shapes``, in order."""
    return lambda rng: (call, {name: rng.normal(size=s) for name, s in shapes.items()})


def _case_batch_norm(rng):
    # train mode updates the running statistics: fresh ones per evaluation
    call = lambda x, g, b: batch_norm(x, BatchNormParams(g, b, np.zeros(3), np.ones(3)), "train")
    return call, {
        "input": rng.normal(size=(2, 3, 4, 4)),
        "gamma": rng.normal(1.0, 0.2, 3),
        "beta": rng.normal(0.0, 0.2, 3),
    }


def _case_relu(rng):
    x = rng.normal(size=(3, 5))
    x = x + np.sign(x) * 0.05  # keep values away from the kink at 0
    return relu, {"input": x}


def _case_add_relu(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 3, 4))
    b = b + np.sign(a + b) * 0.05  # keep the sums away from the kink at 0
    return add_relu, {"a": a, "b": b}


def _case_dropout(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    # a fresh stream per call: every finite-difference forward draws the same mask
    seed = int(rng.integers(0, 2**31))
    return lambda t: dropout(t, 0.25, "train", Rng(seed)), {"input": x}


def _case_weighted_ce(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    labels = rng.integers(0, 2, (1, 3, 3))
    w = np.array([1.0, 2.0])
    return lambda t: weighted_cross_entropy(softmax_channels(t), labels, w), {"logits": x}


def _case_resnet_block(rng):
    spec = ResNetBlockSpec(8, 16, kernel=3, uses_separable=True)
    params = _init_block(spec, Rng(int(rng.integers(0, 2**31)), 0), np.float64)
    x = rng.normal(size=(1, 8, 8, 8)) + 0.05
    return lambda t: resnet_block_forward(params, t, "train", None, 0.0), {"input": x}


LAYER_CASES = {
    "conv2d": _normal(
        lambda x, w, b: conv2d(x, Conv2dParams(w, b)),
        input=(1, 2, 4, 4), weight=(3, 2, 3, 3), bias=(3,),
    ),
    "separable_conv2d": _normal(
        lambda x, *p: separable_conv2d(x, SeparableConv2dParams(*p)),
        input=(1, 3, 4, 4), dw_weight=(3, 1, 3, 3), dw_bias=(3,),
        pw_weight=(4, 3, 1, 1), pw_bias=(4,),
    ),
    "batch_norm": _case_batch_norm,
    "max_pool_2x2": _normal(max_pool_2x2, input=(1, 2, 4, 4)),
    "bilinear_upsample_2x": _normal(bilinear_upsample_2x, input=(1, 2, 3, 3)),
    "pixel_shuffle": _normal(pixel_shuffle, input=(1, 4, 2, 2)),
    "relu": _case_relu,
    "add_relu": _case_add_relu,
    "concat": _normal(lambda a, b: concat([a, b]), a=(1, 2, 3, 3), b=(1, 3, 3, 3)),
    "dropout": _case_dropout,
    "softmax_channels": _normal(softmax_channels, input=(1, 3, 2, 2)),
    "weighted_cross_entropy": _case_weighted_ce,
}

BLOCK_CASES = {"resnet_block_8_16": _case_resnet_block}


def project(out, proj):
    """``(out * proj).sum()`` as one node."""

    shape, node = out.shape, out.node

    def bwd(g):
        _accum(node, np.broadcast_to(g, shape) * proj)

    return _make((out.data * proj).sum(), (out,), bwd)


def _check(call, arrays, rng):
    """(name, max relative error) for each array of one case instance."""
    with no_grad():
        shape = call(*map(Tensor, arrays.values())).shape
    proj = rng.normal(size=shape) if shape else None

    def score(i, t):
        args = [Tensor(a) for a in arrays.values()]
        args[i] = t
        out = call(*args)
        return out if proj is None else project(out, proj)

    return [(wrt, grad_check(lambda t: score(i, t), x)) for i, (wrt, x) in enumerate(arrays.items())]


def run_suite(scope: str):
    """(op_name, wrt, instance, max_relative_error) tuples for ``scope``."""
    scopes = {"layers": LAYER_CASES, "block": BLOCK_CASES, "model": {**LAYER_CASES, **BLOCK_CASES}}
    if scope not in scopes:
        raise ValueError(f"unknown gradcheck scope {scope!r}")
    results = []
    for name, case in scopes[scope].items():
        for inst in range(INSTANCES):
            rng = Rng(0, (zlib.crc32(name.encode()) & 0xFFFF, inst))
            for wrt, err in _check(*case(rng), rng):
                results.append((name, wrt, inst, err))
    return results
