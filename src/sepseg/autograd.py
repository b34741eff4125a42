"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap a numpy array (float32 by default, float64 for gradient
checking) in row-major layout. Every differentiable op records a backward
closure; ``backward()`` walks the graph once in reverse topological order
and accumulates gradients additively across fan-out.
"""

from __future__ import annotations

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """N-dimensional array node in the autograd graph.

    4-D tensors use the (batch, channels, height, width) convention.
    Values are treated as immutable once constructed; only ``data`` of
    leaf parameters may be updated in place by the optimizer between
    steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

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
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def relu(self):
        return relu(self)

    def log(self):
        return log_clamped(self)


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


def _check_broadcast(a_shape, b_shape):
    """b may add size-1 axes or drop leading axes relative to a; no other
    implicit promotion is allowed."""
    if len(b_shape) > len(a_shape):
        raise ShapeError(f"cannot broadcast {b_shape} onto {a_shape}")
    for sa, sb in zip(a_shape[::-1], b_shape[::-1]):
        if sb != sa and sb != 1 and sa != 1:
            raise ShapeError(f"cannot broadcast {b_shape} onto {a_shape}")


def _unbroadcast(g, shape):
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise binary ops -------------------------------------------------


def add(a, b):
    a = _wrap(a, None if not isinstance(b, Tensor) else b.dtype)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a = _wrap(a, None if not isinstance(b, Tensor) else b.dtype)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a = _wrap(a, None if not isinstance(b, Tensor) else b.dtype)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bwd)


def div(a, b):
    a = _wrap(a, None if not isinstance(b, Tensor) else b.dtype)
    b = _wrap(b, a.dtype)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), bwd)


# -- elementwise unary ops --------------------------------------------------


def relu(x):
    mask = x.data > 0

    def bwd(g):
        _accum(x, g * mask)

    return _make(np.maximum(x.data, 0), (x,), bwd)


def log_clamped(x, floor=1e-12):
    """Natural log with the argument clamped at ``floor`` to avoid -inf."""
    clamped = np.maximum(x.data, floor)

    def bwd(g):
        _accum(x, np.where(x.data >= floor, g / clamped, 0.0))

    return _make(np.log(clamped), (x,), bwd)


def power(x, p):
    if not np.isscalar(p):
        raise ValueError("power supports scalar exponents only")

    def bwd(g):
        _accum(x, g * p * x.data ** (p - 1))

    return _make(x.data**p, (x,), bwd)


# -- reductions and structure -----------------------------------------------


def tensor_sum(x, axis=None, keepdims=False):
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.shape))

    return _make(out_data, (x,), bwd)


def tensor_mean(x, axis=None, keepdims=False):
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[i] for i in axes]))
    return tensor_sum(x, axis, keepdims) * (1.0 / count)


def reshape(x, shape):
    old_shape = x.shape

    def bwd(g):
        _accum(x, g.reshape(old_shape))

    return _make(x.data.reshape(shape), (x,), bwd)


def transpose(x, axes):
    inv = np.argsort(axes)

    def bwd(g):
        _accum(x, g.transpose(inv))

    return _make(x.data.transpose(axes), (x,), bwd)


def concat(tensors, axis):
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

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
    for ky in range(k):
        for kx in range(k):
            np.add.at(
                xp,
                (
                    slice(None),
                    slice(None),
                    slice(ky, ky + stride * h_out, stride),
                    slice(kx, kx + stride * w_out, stride),
                ),
                cols[:, ky, kx].transpose(1, 0, 2, 3),
            )
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
    x_shape = x.shape

    def bwd(g):
        _accum(x, _col2im_forward(g, x_shape, k, stride, pad))

    return _make(_im2col_forward(x.data, k, stride, pad), (x,), bwd)


# -- graph traversal ----------------------------------------------------------


def backward(root):
    """Accumulate d(root)/d(node) into every graph ancestor's ``grad``."""
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.shape}")
    topo = []
    visited = set()
    stack = [(root, False)]
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
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# -- gradient checking --------------------------------------------------------


def grad_check(f, x, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor; ``x`` is evaluated in double
    precision regardless of its incoming dtype.
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
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(Tensor(base.copy())).data)
        flat[i] = orig - eps
        fm = float(f(Tensor(base.copy())).data)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- deterministic RNG --------------------------------------------------------


class Rng:
    """Deterministic PCG64 generator with named substreams.

    Identical (seed, stream path, call sequence) produce identical output
    on every platform. Substreams are derived via SeedSequence spawn keys,
    so per-worker/per-sample streams are order-independent.
    """

    def __init__(self, seed, stream=()):
        if isinstance(stream, int):
            stream = (stream,)
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, *ids):
        return Rng(self.seed, self.stream + tuple(int(i) for i in ids))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)
