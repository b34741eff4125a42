"""Neural network building blocks.

Standard and depthwise separable convolutions, batch normalization,
2x2 max pooling, bilinear 2x upsampling, parameter-free pixel shuffle,
dropout and the activations. All layers are differentiable through the
autograd graph; parameters live in small dataclass containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Rng, ShapeError, Tensor, _make, _accum, im2col, matmul, relu

__all__ = [
    "Conv2dParams",
    "SeparableConv2dParams",
    "BatchNormParams",
    "DropoutParams",
    "init_conv2d",
    "init_separable_conv2d",
    "init_batch_norm",
    "conv2d",
    "separable_conv2d",
    "batch_norm",
    "max_pool_2x2",
    "bilinear_upsample_2x",
    "pixel_shuffle",
    "dropout",
    "relu",
    "softmax_channels",
    "conv2d_param_count",
    "separable_param_count",
]


# -- parameter containers -----------------------------------------------------


@dataclass
class Conv2dParams:
    weight: Tensor  # (C_out, C_in, k, k)
    bias: Tensor  # (C_out,)
    stride: int = 1
    pad: int = 0


@dataclass
class SeparableConv2dParams:
    depthwise_weight: Tensor  # (C_in, 1, k, k)
    depthwise_bias: Tensor  # (C_in,)
    pointwise_weight: Tensor  # (C_out, C_in, 1, 1)
    pointwise_bias: Tensor  # (C_out,)


@dataclass
class BatchNormParams:
    gamma: Tensor  # (C,)
    beta: Tensor  # (C,)
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    momentum: float = 0.1
    eps: float = 1e-5


@dataclass
class DropoutParams:
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")


def _kaiming(rng: Rng, shape, fan_in, dtype):
    std = np.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, shape).astype(dtype), requires_grad=True)


def init_conv2d(c_in, c_out, k, rng, stride=1, pad=None, dtype=np.float32):
    if pad is None:
        pad = (k - 1) // 2
    weight = _kaiming(rng, (c_out, c_in, k, k), c_in * k * k, dtype)
    bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return Conv2dParams(weight, bias, stride, pad)


def init_separable_conv2d(c_in, c_out, k, rng, dtype=np.float32):
    dw = _kaiming(rng, (c_in, 1, k, k), k * k, dtype)
    db = Tensor(np.zeros(c_in, dtype=dtype), requires_grad=True)
    pw = _kaiming(rng, (c_out, c_in, 1, 1), c_in, dtype)
    pb = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return SeparableConv2dParams(dw, db, pw, pb)


def init_batch_norm(c, dtype=np.float32, momentum=0.1, eps=1e-5):
    return BatchNormParams(
        gamma=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
        beta=Tensor(np.zeros(c, dtype=dtype), requires_grad=True),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
        momentum=momentum,
        eps=eps,
    )


def conv2d_param_count(c_in, c_out, k):
    return c_out * (c_in * k * k + 1)


def separable_param_count(c_in, c_out, k):
    return c_in * (k * k + 1) + c_out * (c_in + 1)


# -- convolutions ---------------------------------------------------------------


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation with bias, realized as im2col + matmul."""
    n, c_in, h, w = x.shape
    c_out, c_w, k, _ = p.weight.shape
    if c_in != c_w:
        raise ShapeError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_w}")
    h_out = (h + 2 * p.pad - k) // p.stride + 1
    w_out = (w + 2 * p.pad - k) // p.stride + 1
    cols = im2col(x, k, p.stride, p.pad)
    out = matmul(p.weight.reshape(c_out, c_in * k * k), cols)
    out = out.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    return out + p.bias.reshape(1, c_out, 1, 1)


def _depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int) -> Tensor:
    """Per-channel k x k convolution, stride 1, spatial size preserved."""
    n, c, h, w = x.shape
    cw, one, k, _ = weight.shape
    if cw != c or one != 1:
        raise ShapeError(f"depthwise weight {weight.shape} incompatible with input channels {c}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    dw = weight.data.reshape(c, k, k)
    out_data = np.einsum("nchwij,cij->nchw", win, dw) + bias.data[None, :, None, None]
    ho, wo = out_data.shape[2], out_data.shape[3]

    def bwd(g):
        _accum(weight, np.einsum("nchwij,nchw->cij", win, g).reshape(c, 1, k, k))
        _accum(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gpad = np.zeros_like(xp)
            for i in range(k):
                for j in range(k):
                    gpad[:, :, i : i + ho, j : j + wo] += g * dw[None, :, i, j, None, None]
            _accum(x, gpad[:, :, pad : pad + h, pad : pad + w] if pad else gpad)

    return _make(out_data.astype(x.dtype, copy=False), (x, weight, bias), bwd)


def separable_conv2d(x: Tensor, p: SeparableConv2dParams) -> Tensor:
    """Depthwise spatial convolution followed by 1x1 pointwise mixing."""
    k = p.depthwise_weight.shape[2]
    mid = _depthwise_conv2d(x, p.depthwise_weight, p.depthwise_bias, (k - 1) // 2)
    return conv2d(mid, Conv2dParams(p.pointwise_weight, p.pointwise_bias, stride=1, pad=0))


# -- normalization, pooling, resampling -----------------------------------------


def batch_norm(x: Tensor, p: BatchNormParams, mode: str) -> Tensor:
    n, c, h, w = x.shape
    gamma = p.gamma.reshape(1, c, 1, 1)
    beta = p.beta.reshape(1, c, 1, 1)
    if mode == "train":
        if n * h * w < 2:
            raise ValueError(f"batch_norm train mode needs N*H*W >= 2, got {n * h * w}")
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        m = p.momentum
        p.running_mean = ((1 - m) * p.running_mean + m * mu.data.reshape(c)).astype(
            p.running_mean.dtype
        )
        p.running_var = ((1 - m) * p.running_var + m * var.data.reshape(c)).astype(
            p.running_var.dtype
        )
        xhat = (x - mu) / ((var + p.eps) ** 0.5)
    elif mode == "infer":
        rm = Tensor(p.running_mean.reshape(1, c, 1, 1))
        rv = Tensor(p.running_var.reshape(1, c, 1, 1))
        xhat = (x - rm) / ((rv + p.eps) ** 0.5)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return xhat * gamma + beta


def max_pool_2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max; gradient routes to the argmax (ties: first
    position in row-major scan)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool_2x2 needs even spatial dims, got {h}x{w}")
    ho, wo = h // 2, w // 2
    win = x.data.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    arg = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        gwin = np.zeros((n, c, ho, wo, 4), dtype=g.dtype)
        np.put_along_axis(gwin, arg[..., None], g[..., None], axis=-1)
        _accum(
            x,
            gwin.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w),
        )

    return _make(out_data, (x,), bwd)


def _linear_resample_coeffs(src, dst):
    """Half-pixel-center source indices and weights for 1-D linear resize."""
    s = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    s = np.clip(s, 0, src - 1)
    i0 = np.floor(s).astype(np.intp)
    t = s - i0
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, t


def _upsample2x_axis(data, axis):
    src = data.shape[axis]
    i0, i1, t = _linear_resample_coeffs(src, 2 * src)
    shape = [1] * data.ndim
    shape[axis] = 2 * src
    t = t.reshape(shape)
    return np.take(data, i0, axis=axis) * (1 - t) + np.take(data, i1, axis=axis) * t


def _upsample2x_axis_adjoint(g, axis, src):
    i0, i1, t = _linear_resample_coeffs(src, 2 * src)
    shape = [1] * g.ndim
    shape[axis] = 2 * src
    t = t.reshape(shape)
    out_shape = list(g.shape)
    out_shape[axis] = src
    gx = np.zeros(out_shape, dtype=g.dtype)
    idx0 = [slice(None)] * g.ndim
    idx0[axis] = i0
    idx1 = [slice(None)] * g.ndim
    idx1[axis] = i1
    np.add.at(gx, tuple(idx0), g * (1 - t))
    np.add.at(gx, tuple(idx1), g * t)
    return gx


def bilinear_upsample_2x(x: Tensor) -> Tensor:
    """2x bilinear upsampling with half-pixel centers and border clamping."""
    n, c, h, w = x.shape
    out_data = _upsample2x_axis(_upsample2x_axis(x.data, 2), 3)

    def bwd(g):
        _accum(x, _upsample2x_axis_adjoint(_upsample2x_axis_adjoint(g, 3, w), 2, h))

    return _make(out_data, (x,), bwd)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange r^2 channel groups into an r-times-larger spatial grid.

    Pure permutation with zero parameters; the backward pass is the
    inverse permutation.
    """
    n, c, h, w = x.shape
    if c % (r * r):
        raise ShapeError(f"pixel_shuffle needs channels divisible by r^2={r * r}, got {c}")
    co = c // (r * r)
    out_data = (
        x.data.reshape(n, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, co, h * r, w * r)
    )

    def bwd(g):
        _accum(
            x,
            g.reshape(n, co, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c, h, w),
        )

    return _make(out_data, (x,), bwd)


def dropout(x: Tensor, p: DropoutParams, mode: str, rng: Rng = None) -> Tensor:
    if mode == "infer" or p.rate == 0.0:
        return x * 1.0
    if rng is None:
        raise ValueError("dropout in train mode requires an Rng")
    keep = (rng.uniform(size=x.shape) >= p.rate).astype(x.dtype)
    return x * Tensor(keep / (1.0 - p.rate))


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, stabilized by max-subtraction."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        _accum(x, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _make(s, (x,), bwd)
