"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float32 by default, float64 for gradient
checking) in row-major layout. The ops take only what the network passes:
``add_relu`` adds two tensors of one shape, ``concat`` joins tensors along
the channel axis, and no op broadcasts.

Gradient bookkeeping is kept apart from the data. A ``Tensor`` holds its
``data`` and its ``node``; the node is ``None`` when the tensor needs no
gradient. A ``Node`` holds no activation: only the gradient accumulated so
far, the nodes of its parents that need a gradient (``_parents``) and the
backward closure. A leaf parameter owns its node, so its ``grad`` lives
there between ``backward`` and the optimizer step.

A backward closure captures the arrays it reads and its parents' nodes,
never a parent ``Tensor``, and hands each gradient to ``_accum(node, g)``,
which ignores a ``None`` node. So a training graph keeps alive only the
arrays some backward reads: an op's output that no backward reads is freed
as soon as the forward drops its tensor.

A node adopts the first gradient it is handed, with no copy or cast, which
rests on one ownership rule: a closure never writes into a gradient it
receives or hands on. Two nodes may share one array (``add_relu`` hands
one to both parents, ``concat`` hands out views), but neither changes it.
Only the optimizer writes gradients in place, those of the leaves, and
each leaf's comes fresh from its own layer's closure.

While recording is on (the default), every differentiable op with a parent
that requires a gradient records a node; inside ``no_grad()`` ops record
nothing, so their closures and captured arrays are dropped at once.
Infer-mode model forwards run there.

``backward()`` walks the nodes once in reverse topological order and
accumulates gradients additively across fan-out. It frees the graph as it
goes: once a node's closure has run, the node drops its parents, its
gradient and the closure, so only the leaves keep their ``grad``. A second
``backward`` through a released graph raises ``RuntimeError``.

Every random draw comes from an ``Rng``: numpy's ``Generator`` with named substreams.
"""

from __future__ import annotations

import contextlib

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
FD_STEP = 1e-5  # central-difference step of ``grad_check``


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Node:
    """Gradient bookkeeping of one tensor, with no activation data: the
    gradient accumulated so far, the nodes of the parents that need a
    gradient, and the backward closure, ``None`` for a leaf."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents, backward_fn):
        self.grad = None
        self._parents = parents
        self._backward = backward_fn


class Tensor:
    """An array and, when it needs a gradient, its graph ``node``.

    4-D tensors use the (batch, channels, height, width) convention.
    Values are treated as immutable once constructed; only ``data`` of
    leaf parameters may be updated by the optimizer between steps.
    ``grad``, ``_parents`` and ``_backward`` read the node's.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        self.data = arr if arr.dtype in FLOAT_DTYPES else arr.astype(np.float32)
        self.node = Node((), None) if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def _parents(self):
        return () if self.node is None else self.node._parents

    @property
    def _backward(self):
        return None if self.node is None else self.node._backward

    @_backward.setter
    def _backward(self, fn):
        self.node._backward = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        if self.node is not None:
            self.node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_recording = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block record no graph; the previous state is restored
    on exit, also when the block raises."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _make(data, parents, backward_fn):
    """A tensor of ``data`` whose node links the nodes of ``parents`` to
    ``backward_fn``; without recording, or without a parent that needs a
    gradient, the tensor has no node and the closure is dropped."""
    out = Tensor(data)
    if _recording:
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = Node(nodes, backward_fn)
    return out


def _accum(node, g):
    """Adopt ``g``, of the node's shape and dtype, as the gradient of
    ``node``, or add it out of place to the gradient it has."""
    if node is None:
        return
    node.grad = g if node.grad is None else node.grad + g


# -- elementwise ops --------------------------------------------------------


def relu(x):
    """max(x, 0). The backward tests the sign of the output, the mask of
    ``x > 0`` (NaN included), so it keeps no input."""
    out = np.maximum(x.data, 0)
    xn = x.node

    def bwd(g):
        _accum(xn, g * (out > 0))

    return _make(out, (x,), bwd)


def add_relu(a, b):
    """``relu(a + b)`` of two tensors of one shape as one node, equal to the
    two ops bit for bit. The sum is a fresh buffer that nothing else holds,
    so the ReLU runs in place on it."""
    if a.shape != b.shape:
        raise ShapeError(f"add_relu needs equal shapes, got {a.shape} and {b.shape}")
    out = a.data + b.data
    np.maximum(out, 0, out=out)
    an, bn = a.node, b.node

    def bwd(g):
        g = g * (out > 0)
        _accum(an, g)
        _accum(bn, g)

    return _make(out, (a, b), bwd)


# -- structure -----------------------------------------------------------------


def concat(tensors):
    """Join (N, C_i, H, W) tensors along the channel axis."""
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])
    nodes = [t.node for t in tensors]

    def bwd(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accum(node, g[:, lo:hi])

    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), bwd)


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

    ad, bd, an, bn = a.data, b.data, a.node, b.node

    def bwd(g):
        _accum(an, g @ bd.T)
        _accum(bn, ad.T @ g)

    return _make(a.data @ b.data, (a, b), bwd)


# -- im2col -------------------------------------------------------------------


def _im2col_forward(x, k, stride, pad):
    n, c, h, w = x.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c, k, k, n, h_out, w_out), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, :, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride]
            cols[:, ky, kx] = patch.transpose(1, 0, 2, 3)
    return cols.reshape(c * k * k, n * h_out * w_out)


def _col2im_forward(cols, x_shape, k, stride, pad):
    n, c, h, w = x_shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    cols = cols.reshape(c, k, k, n, h_out, w_out)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # within one offset the strided slice repeats no index, so a plain
    # += adds each column value once, in the same offset order as a scatter
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, :, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride]
            patch += cols[:, ky, kx].transpose(1, 0, 2, 3)
    if pad:
        xp = xp[:, :, pad:-pad, pad:-pad]
    return xp


def _check_im2col_args(x_shape, k, stride, pad):
    if len(x_shape) != 4:
        raise ShapeError(f"im2col expects a 4-D tensor, got shape {x_shape}")
    _, _, h, w = x_shape
    if k < 1 or stride < 1 or pad < 0:
        raise ValueError(f"invalid im2col arguments k={k} stride={stride} pad={pad}")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(f"kernel {k} larger than padded input {h + 2 * pad}x{w + 2 * pad}")


def im2col(x, k, stride=1, pad=0):
    """Unfold receptive fields into a (C*k*k) x (N*H_out*W_out) matrix."""
    _check_im2col_args(x.shape, k, stride, pad)
    x_shape, xn = x.shape, x.node

    def bwd(g):
        _accum(xn, _col2im_forward(g, x_shape, k, stride, pad))

    return _make(_im2col_forward(x.data, k, stride, pad), (x,), bwd)


# -- graph traversal ----------------------------------------------------------


def _released(g):
    raise RuntimeError("backward through a graph an earlier backward already released")


def backward(root):
    """Accumulate d(root)/d(node) into every graph ancestor's ``grad``.

    Each interior node is released right after its closure runs: reverse
    topological order has by then run every consumer, so its gradient is
    complete and nothing reads it again. A root that needs no gradient has
    no ancestors to reach."""
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.shape}")
    if root.node is None:
        return
    topo = []
    visited = set()
    stack = [(root.node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    root.node.grad = np.ones_like(root.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = _released
            node._parents = ()
            node.grad = None


# -- gradient checking --------------------------------------------------------


def grad_check(f, x):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` is evaluated in double
    precision regardless of its incoming dtype, with steps of ``FD_STEP``.
    """
    base = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    xt = Tensor(base.copy(), requires_grad=True)
    y = f(xt)
    y0 = float(y.data)
    if not np.isfinite(y0):
        raise ValueError(f"function value is non-finite at the check point: {y0}")
    backward(y)
    analytic = np.zeros_like(base) if xt.grad is None else xt.grad.reshape(-1)
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)

    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    with no_grad():  # only the analytic pass above needs a graph
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = float(f(Tensor(base.copy())).data)
            flat[i] = orig - FD_STEP
            fm = float(f(Tensor(base.copy())).data)
            flat[i] = orig
            numeric[i] = (fp - fm) / (2 * FD_STEP)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- deterministic RNG --------------------------------------------------------


class Rng(np.random.Generator):
    """A numpy ``Generator`` on PCG64 with named substreams.

    ``Rng(seed, stream)`` seeds PCG64 from ``SeedSequence(seed, spawn_key=stream)``,
    so identical (seed, stream path, call sequence) draw identically on every
    platform; ``substream(*ids)`` extends the path, so streams are order-independent.
    """

    def __init__(self, seed, stream=()):
        if isinstance(stream, int):
            stream = (stream,)
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        super().__init__(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.stream)))

    def substream(self, *ids):
        return Rng(self.seed, self.stream + tuple(int(i) for i in ids))
