"""Finite-difference verification suite for every differentiable layer.

Each entry builds a double-precision scalar function of one tensor
(input, weight or bias) with the remaining arguments held fixed, and
compares the analytic gradient to central differences. Used by the
``gradcheck`` CLI command and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from .autograd import Rng, Tensor, add_relu, grad_check
from .layers import (
    Conv2dParams,
    SeparableConv2dParams,
    batch_norm,
    bilinear_upsample_2x,
    conv2d,
    init_batch_norm,
    max_pool_2x2,
    pixel_shuffle,
    separable_conv2d,
    softmax_channels,
)
from .metrics import ClassWeights, weighted_cross_entropy
from .model import ResNetBlockSpec, _init_block, resnet_block_forward

TOLERANCE = 1e-4
INSTANCES = 5


def _proj(rng, shape):
    """Fixed random projection so the scalar objective exercises every
    output coordinate."""
    return Tensor(rng.normal(size=shape).astype(np.float64))


def _score(out, proj):
    return (out * proj).sum()


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape).astype(np.float64), requires_grad=True)


def _conv_params(rng, c_in, c_out, k):
    w = _rand(rng, (c_out, c_in, k, k))
    b = _rand(rng, (c_out,))
    return Conv2dParams(w, b, stride=1, pad=(k - 1) // 2)


def _sep_params(rng, c_in, c_out, k):
    return SeparableConv2dParams(
        _rand(rng, (c_in, 1, k, k)),
        _rand(rng, (c_in,)),
        _rand(rng, (c_out, c_in, 1, 1)),
        _rand(rng, (c_out,)),
    )


def _case_conv2d(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    p = _conv_params(rng, 2, 3, 3)
    proj = _proj(rng, (1, 3, 4, 4))
    yield "input", x, lambda t: _score(conv2d(t, p), proj)
    yield "weight", p.weight.data, lambda t: _score(
        conv2d(Tensor(x), Conv2dParams(t, p.bias, 1, 1)), proj
    )
    yield "bias", p.bias.data, lambda t: _score(
        conv2d(Tensor(x), Conv2dParams(p.weight, t, 1, 1)), proj
    )


def _case_separable(rng):
    x = rng.normal(size=(1, 3, 4, 4))
    p = _sep_params(rng, 3, 4, 3)
    proj = _proj(rng, (1, 4, 4, 4))

    def rebuild(dw=None, db=None, pw=None, pb=None):
        return SeparableConv2dParams(
            p.depthwise_weight if dw is None else dw,
            p.depthwise_bias if db is None else db,
            p.pointwise_weight if pw is None else pw,
            p.pointwise_bias if pb is None else pb,
        )

    yield "input", x, lambda t: _score(separable_conv2d(t, p), proj)
    yield "dw_weight", p.depthwise_weight.data, lambda t: _score(
        separable_conv2d(Tensor(x), rebuild(dw=t)), proj
    )
    yield "dw_bias", p.depthwise_bias.data, lambda t: _score(
        separable_conv2d(Tensor(x), rebuild(db=t)), proj
    )
    yield "pw_weight", p.pointwise_weight.data, lambda t: _score(
        separable_conv2d(Tensor(x), rebuild(pw=t)), proj
    )
    yield "pw_bias", p.pointwise_bias.data, lambda t: _score(
        separable_conv2d(Tensor(x), rebuild(pb=t)), proj
    )


def _case_batch_norm(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    bn = init_batch_norm(3, dtype=np.float64)
    gamma = rng.normal(1.0, 0.2, 3)
    beta = rng.normal(0.0, 0.2, 3)
    proj = _proj(rng, (2, 3, 4, 4))

    def fresh(g, b):
        # running-stat updates are side effects; rebuild per evaluation
        p = init_batch_norm(3, dtype=np.float64)
        p.gamma, p.beta = g, b
        return p

    yield "input", x, lambda t: _score(
        batch_norm(t, fresh(Tensor(gamma), Tensor(beta)), "train"), proj
    )
    yield "gamma", gamma, lambda t: _score(batch_norm(Tensor(x), fresh(t, Tensor(beta)), "train"), proj)
    yield "beta", beta, lambda t: _score(batch_norm(Tensor(x), fresh(Tensor(gamma), t), "train"), proj)


def _case_batch_norm_infer(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    gamma = rng.normal(1.0, 0.2, 3)
    beta = rng.normal(0.0, 0.2, 3)
    p = init_batch_norm(3, dtype=np.float64)
    p.running_mean = rng.normal(0.0, 0.5, 3)
    p.running_var = rng.uniform(0.5, 2.0, 3)
    proj = _proj(rng, (2, 3, 4, 4))

    def with_affine(g, b):
        p.gamma, p.beta = g, b
        return p

    yield "input", x, lambda t: _score(
        batch_norm(t, with_affine(Tensor(gamma), Tensor(beta)), "infer"), proj
    )
    yield "gamma", gamma, lambda t: _score(
        batch_norm(Tensor(x), with_affine(t, Tensor(beta)), "infer"), proj
    )
    yield "beta", beta, lambda t: _score(
        batch_norm(Tensor(x), with_affine(Tensor(gamma), t), "infer"), proj
    )


def _case_max_pool(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    proj = _proj(rng, (1, 2, 2, 2))
    yield "input", x, lambda t: _score(max_pool_2x2(t), proj)


def _case_bilinear(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    proj = _proj(rng, (1, 2, 6, 6))
    yield "input", x, lambda t: _score(bilinear_upsample_2x(t), proj)


def _case_pixel_shuffle(rng):
    x = rng.normal(size=(1, 4, 2, 2))
    proj = _proj(rng, (1, 1, 4, 4))
    yield "input", x, lambda t: _score(pixel_shuffle(t, 2), proj)


def _case_relu(rng):
    x = rng.normal(size=(3, 5))
    x = x + np.sign(x) * 0.05  # keep values away from the kink at 0
    proj = _proj(rng, (3, 5))
    yield "input", x, lambda t: _score(t.relu(), proj)


def _case_add_relu(rng):
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 3, 4))
    s = a + b
    b = b + np.sign(s) * 0.05  # keep the sums away from the kink at 0
    proj = _proj(rng, (2, 3, 4))
    yield "a", a, lambda t: _score(add_relu(t, Tensor(b)), proj)
    yield "b", b, lambda t: _score(add_relu(Tensor(a), t), proj)


def _case_softmax(rng):
    x = rng.normal(size=(1, 3, 2, 2))
    proj = _proj(rng, (1, 3, 2, 2))
    yield "input", x, lambda t: _score(softmax_channels(t), proj)


def _case_weighted_ce(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    labels = rng.integers(0, 2, (1, 3, 3))
    w = ClassWeights(np.array([1.0, 2.0]))
    yield "logits", x, lambda t: weighted_cross_entropy(softmax_channels(t), labels, w)


def _case_resnet_block(rng):
    spec = ResNetBlockSpec(8, 16, kernel=3, uses_separable=True)
    params = _init_block(spec, Rng(int(rng.integers(0, 2**31)), 0), np.float64)
    x = rng.normal(size=(1, 8, 8, 8)) + 0.05
    proj = _proj(rng, (1, 16, 8, 8))
    yield "input", x, lambda t: _score(
        resnet_block_forward(spec, params, t, "train"), proj
    )


LAYER_CASES = {
    "conv2d": _case_conv2d,
    "separable_conv2d": _case_separable,
    "batch_norm": _case_batch_norm,
    "batch_norm_infer": _case_batch_norm_infer,
    "max_pool_2x2": _case_max_pool,
    "bilinear_upsample_2x": _case_bilinear,
    "pixel_shuffle": _case_pixel_shuffle,
    "relu": _case_relu,
    "add_relu": _case_add_relu,
    "softmax_channels": _case_softmax,
    "weighted_cross_entropy": _case_weighted_ce,
}

BLOCK_CASES = {"resnet_block_8_16": _case_resnet_block}


def run_suite(scope: str = "layers", instances: int = INSTANCES, seed: int = 0):
    """Yield (op_name, wrt, instance, max_relative_error) tuples."""
    if scope == "layers":
        cases = LAYER_CASES
    elif scope == "block":
        cases = BLOCK_CASES
    elif scope == "model":
        cases = {**LAYER_CASES, **BLOCK_CASES}
    else:
        raise ValueError(f"unknown gradcheck scope {scope!r}")
    import zlib

    results = []
    for name, case in cases.items():
        for inst in range(instances):
            rng = Rng(seed, (zlib.crc32(name.encode()) & 0xFFFF, inst))._gen
            for wrt, x, f in case(rng):
                err = grad_check(f, Tensor(np.asarray(x, dtype=np.float64)))
                results.append((name, wrt, inst, err))
    return results
