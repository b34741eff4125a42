"""The elementwise add and multiply and the sum that ``sepseg.autograd``
provided until no layer composed them, kept as test references.

The tests build reference graphs from them (the primitive compositions
that the one-node layers replaced) and exercise the graph engine with them.
A plain number operand becomes a constant Tensor of the other operand's
dtype, as the ``Tensor`` operators made it.
"""

import numpy as np

from sepseg.autograd import Tensor, _accum, _check_broadcast, _make, _unbroadcast


def _wrap(x, dtype):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def add(a, b):
    a = _wrap(a, b.dtype if isinstance(b, Tensor) else None)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b):
    a = _wrap(a, b.dtype if isinstance(b, Tensor) else None)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bwd)


def tensor_sum(x, axis=None, keepdims=False):
    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape))

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)
