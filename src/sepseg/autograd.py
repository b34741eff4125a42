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
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        if self.node is not None:
            self.node.grad = None


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
