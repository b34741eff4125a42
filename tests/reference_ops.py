"""Graph nodes that the package no longer makes, kept as test references.

The elementwise add and multiply and the sum are those that
``sepseg.autograd`` provided until no layer composed them. The tests build
reference graphs from them (the primitive compositions that the one-node
layers replaced) and exercise the graph engine with them. A plain number
operand becomes a constant Tensor of the other operand's dtype, as the
``Tensor`` operators made it. Unlike the package's ops, these broadcast:
``b`` may add size-1 axes or drop leading axes relative to ``a``.

``depthwise_conv2d`` is the depthwise node that a separable conv made
before it became one node, and ``separable_conv2d`` that two-node
composition. Both run the package's kernels.

Nodes are made through the module attribute ``autograd._make``, so that
fixtures patching it see them.
"""

import numpy as np

from sepseg import autograd, layers
from sepseg.autograd import ShapeError, Tensor, _accum


def check_broadcast(a_shape, b_shape):
    """b may add size-1 axes or drop leading axes relative to a; no other
    implicit promotion is allowed."""
    if len(b_shape) > len(a_shape):
        raise ShapeError(f"cannot broadcast {b_shape} onto {a_shape}")
    for sa, sb in zip(a_shape[::-1], b_shape[::-1]):
        if sb != sa and sb != 1 and sa != 1:
            raise ShapeError(f"cannot broadcast {b_shape} onto {a_shape}")


def unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _wrap(x, dtype):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def add(a, b):
    a = _wrap(a, b.dtype if isinstance(b, Tensor) else None)
    b = _wrap(b, a.dtype)
    check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a.node, unbroadcast(g, a.shape))
        _accum(b.node, unbroadcast(g, b.shape))

    return autograd._make(a.data + b.data, (a, b), bwd)


def mul(a, b):
    a = _wrap(a, b.dtype if isinstance(b, Tensor) else None)
    b = _wrap(b, a.dtype)
    check_broadcast(a.shape, b.shape)

    def bwd(g):
        if a.node is not None:
            _accum(a.node, unbroadcast(g * b.data, a.shape))
        if b.node is not None:
            _accum(b.node, unbroadcast(g * a.data, b.shape))

    return autograd._make(a.data * b.data, (a, b), bwd)


def tensor_sum(x, axis=None, keepdims=False):
    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x.node, np.broadcast_to(g, x.shape))

    return autograd._make(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)


def depthwise_conv2d(x, weight, bias):
    """The depthwise convolution as one node that keeps its input."""
    xd, wd = x.data, weight.data

    def bwd(g):
        gw, gb, gx = layers._depthwise_backward(xd, wd, g)
        _accum(weight.node, gw)
        _accum(bias.node, gb)
        _accum(x.node, gx)

    return autograd._make(layers._depthwise_forward(xd, wd, bias.data), (x, weight, bias), bwd)


def separable_conv2d(x, p):
    """A depthwise node and a 1x1 conv node, the depthwise output kept
    between them for the pointwise backward."""
    mid = depthwise_conv2d(x, p.depthwise_weight, p.depthwise_bias)
    return layers.conv2d(mid, layers.Conv2dParams(p.pointwise_weight, p.pointwise_bias))
