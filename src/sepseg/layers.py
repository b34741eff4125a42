"""Neural network building blocks.

Standard and depthwise separable convolutions, batch normalization,
2x2 max pooling, bilinear 2x upsampling, parameter-free pixel shuffle,
dropout and the channel softmax. Every layer but infer-mode batch norm is
differentiable through the autograd graph; parameters live in small
dataclass containers.

Every layer returns its input's dtype: constants and weights enter the
arithmetic as scalars or arrays of the data's dtype, so a float32 model
computes in float32 end to end and gradcheck's float64 stays float64.

A separable convolution is a depthwise k x k pass, computed as
cache-blocked shifted multiply-adds over runs of images, and a 1x1
pointwise pass, computed as one matmul per image. The depthwise pass and
the standard k x k convolution (k > 1) both work on one flat row-padded
layout (see ``_padded_flat``), in which every kernel tap is one contiguous
span, across the planes a row holds. A standard k x k convolution is
row-blocked im2col on that layout: per image, blocks of output rows whose
k*k tap spans are copied into a column buffer of about ``_CONV_BLOCK``
elements, one GEMM each, with the weight matrix and K order of plain
im2col; on OpenBLAS its forward has im2col's bits at the network's shapes.
Its input gradient is the same kernel applied to the upstream gradient
with the weights flipped 180 degrees and transposed, the adjoint of a
stride-1 same-padded correlation, so no col2im scatter runs. Every conv is
one graph node. The other kernels keep the summation order of the plain
formulation they replaced: the 1x1 path and the depthwise input gradient
are bit-identical to it, and so is the depthwise forward at k = 1 and 3,
up to the sign of a zero. The depthwise weight gradient and the k x k
conv's input and weight gradients are deliberate exceptions that agree to
float rounding (see ``_depthwise_conv2d`` and ``_conv2d_same``). In
infer mode an image's outputs come from that image alone through the same
operations whatever the batch, so a batch gives each image the bits of a
one-image call. Bilinear 2x upsampling is closed form, as passes over the
whole tensor as one flat span; its adjoint gathers without a scatter, in
the order a scatter-add would sum (see ``_upsample2x_axis_adjoint``).

A forward does only forward work. What only a backward reads (the max-pool
routing, a ReLU mask, the block buffers of the conv gradients) is
computed inside the backward closure from the inputs the closure holds, so
an infer-mode forward, which records no graph, never pays for it.
Infer-mode batch norm is one per-channel multiply-add with the running
statistics folded into a scale and a shift, and has no backward: the
network trains with batch statistics only.
Train-mode batch norm is one node with the analytic backward, which keeps
the order of the 14-node primitive graph it replaced and so its bits (see
``_batch_norm_train``). Its reductions and the conv bias gradients are one
``_channel_sum``. Dropout runs in train mode only, as one node that
multiplies by the scaled keep mask.

A backward closure keeps only the arrays it reads, never a tensor (see
``autograd``): a conv its input, max pooling its input and output,
softmax its output, train-mode batch norm the centred input and the
per-channel standard deviation, dropout its boolean keep mask. Bilinear
upsampling and pixel shuffle keep no activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .autograd import Rng, ShapeError, Tensor, _accum, _make

BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_EPS = 1e-5  # added to the variance before its square root

__all__ = [
    "Conv2dParams",
    "SeparableConv2dParams",
    "BatchNormParams",
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
    "softmax_channels",
]


# -- parameter containers -----------------------------------------------------


@dataclass
class Conv2dParams:
    """A stride-1 convolution with same padding; the kernel fixes both."""

    weight: Tensor  # (C_out, C_in, k, k), k odd
    bias: Tensor  # (C_out,)

    # not fields: read by the benchmark's cost model (perfbench/costmodel.py)
    stride = 1

    @property
    def pad(self):
        return (self.weight.shape[2] - 1) // 2


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
    running_mean: np.ndarray  # (C,), updated by train mode
    running_var: np.ndarray  # (C,)


def _kaiming(rng: Rng, shape, fan_in, dtype):
    std = np.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, shape).astype(dtype), requires_grad=True)


def init_conv2d(c_in, c_out, k, rng, dtype):
    weight = _kaiming(rng, (c_out, c_in, k, k), c_in * k * k, dtype)
    bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return Conv2dParams(weight, bias)


def init_separable_conv2d(c_in, c_out, k, rng, dtype):
    dw = _kaiming(rng, (c_in, 1, k, k), k * k, dtype)
    db = Tensor(np.zeros(c_in, dtype=dtype), requires_grad=True)
    pw = init_conv2d(c_in, c_out, 1, rng, dtype)
    return SeparableConv2dParams(dw, db, pw.weight, pw.bias)


def init_batch_norm(c, dtype):
    return BatchNormParams(
        gamma=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
        beta=Tensor(np.zeros(c, dtype=dtype), requires_grad=True),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
    )


# -- convolutions ---------------------------------------------------------------


def _channel_sum(g):
    """Per-channel sum of ``g`` (N, C, H, W): the batch, then rows, then columns."""
    return g.sum(axis=0).sum(axis=1).sum(axis=1)


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation with bias, stride 1, same padding: a k x k kernel
    (k odd) keeps the spatial size, padding each side with (k - 1)/2 zeros.

    A 1x1 kernel is one matmul over the (N, C_in, H*W) view of the input
    (see ``_conv1x1``); a larger one is row-blocked im2col on the flat
    row-padded layout (see ``_conv2d_same``). Either way the conv is one
    graph node.
    """
    c_in = x.shape[1]
    c_out, c_w, k, _ = p.weight.shape
    if c_in != c_w:
        raise ShapeError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_w}")
    if k % 2 == 0:
        raise ShapeError(f"conv2d needs an odd kernel for same padding, got {k}x{k}")
    if k == 1:
        return _conv1x1(x, p.weight, p.bias)
    return _conv2d_same(x, p.weight, p.bias)


def _conv1x1(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Pointwise convolution as one node: W @ x per image, no im2col copy.

    Forward and gradients equal the im2col path bit for bit; the bias
    gradient is a ``_channel_sum``.
    """
    n, c_in, h, w = x.shape
    c_out = weight.shape[0]
    x3 = x.data.reshape(n, c_in, h * w)
    w2 = weight.data.reshape(c_out, c_in)
    out_data = np.matmul(w2, x3)
    out_data += bias.data[:, None]
    xd, w_shape = x.data, weight.shape
    xn, wn, bn = x.node, weight.node, bias.node

    def bwd(g):
        # (C_out, N*H*W) @ (N*H*W, C_in): the im2col path's one GEMM
        g2 = g.transpose(1, 0, 2, 3).reshape(c_out, n * h * w)
        x2 = xd.transpose(1, 0, 2, 3).reshape(c_in, n * h * w)
        _accum(wn, (g2 @ x2.T).reshape(w_shape))
        _accum(bn, _channel_sum(g))
        if xn is not None:
            _accum(xn, np.matmul(w2.T, g.reshape(n, c_out, h * w)).reshape(xd.shape))

    return _make(out_data.reshape(n, c_out, h, w), (x, weight, bias), bwd)


# elements of one row block's column buffer in the k x k conv (4 MiB of
# float32): a whole image's columns at the deep, small maps and 56 rows at
# a 256-wide map with 8 channels, so the buffer does not grow with the
# image
_CONV_BLOCK = 1 << 20


def _block_rows(c, k, h, wp):
    return max(1, min(h, _CONV_BLOCK // (c * k * k * wp)))


def _padded_flat(c, n, h, w, k, dtype):
    """The flat row-padded layout of c rows of n planes of h x w for a k x k
    kernel (k odd) with same padding: a zeroed buffer and its
    ``(c, n, h, w)`` interior view, which the caller fills.

    The buffer has shape ``(c, n*hp*wp + k - 1)`` with ``hp, wp = h + k - 1,
    w + k - 1``; a row holds n planes end to end, each bordered by
    ``pad = (k - 1)/2`` zeros on every side and flattened, plus k - 1 zeros
    that keep the last tap's span inside the row. The m output rows from
    row r0 of plane q read tap (i, j) as the contiguous span
    ``q*hp*wp + (r0 + i)*wp + j`` of length ``m*wp``, whose wide position
    y*wp + x holds plane position (r0 + y + i - pad, x + j - pad) for x < w.
    The caller drops the others: the last k - 1 of each wide row, which wrap
    into the next padded row, and those between planes. At the centre tap
    they read only border zeros, so its wrapped columns are zero.
    """
    hp, wp, pad = h + k - 1, w + k - 1, (k - 1) // 2
    buf = np.zeros((c, n * hp * wp + k - 1), dtype=dtype)
    return buf, buf[:, : n * hp * wp].reshape(c, n, hp, wp)[:, :, pad : pad + h, pad : pad + w]


def _column_blocks(data, k):
    """Yield ``(b, rows, cols)`` for each block of output rows of each
    image of ``data`` (N, C, H, W), for a k x k kernel with same padding.

    The image is copied once into the layout of ``_padded_flat``. ``cols``
    is the block's ``(C*k*k, m*wp)`` im2col matrix (``wp = W + k - 1``),
    K in (c, i, j) order, filled with k*k tap span copies, so the last
    k - 1 columns of each of its m rows wrap around. ``rows`` is the
    block's slice of output rows. Blocks hold ``_block_rows`` rows, about
    ``_CONV_BLOCK`` elements of ``cols``, and every block's ``cols`` is a
    view of one buffer that the next block overwrites.
    """
    n, c, h, w = data.shape
    wp = w + k - 1
    rows = _block_rows(c, k, h, wp)
    xf, inner = _padded_flat(c, 1, h, w, k, data.dtype)
    buf = np.empty((c, k * k, rows * wp), dtype=data.dtype)
    for b in range(n):
        inner[:, 0] = data[b]
        for r0 in range(0, h, rows):
            m = min(rows, h - r0)
            cols = buf[:, :, : m * wp]
            for t, (i, j) in enumerate(np.ndindex(k, k)):
                s = (r0 + i) * wp + j
                cols[:, t] = xf[:, s : s + m * wp]
            yield b, slice(r0, r0 + m), cols.reshape(c * k * k, m * wp)


def _correlate_same(data, weight, bias):
    """Stride-1, same-padded cross-correlation of ``data`` (N, C, H, W)
    with ``weight`` (C_out, C, k, k), plus ``bias``: one GEMM per row
    block of ``_column_blocks``, into a wide buffer whose wrapped columns
    the bias add leaves out of the output."""
    n, _, h, w = data.shape
    c_out, c, k, _ = weight.shape
    wp = w + k - 1
    w2 = weight.reshape(c_out, c * k * k)
    out = np.empty((n, c_out, h, w), dtype=np.result_type(data, w2))
    wide = np.empty((c_out, _block_rows(c, k, h, wp) * wp), dtype=out.dtype)
    for b, rows, cols in _column_blocks(data, k):
        m = rows.stop - rows.start
        prod = np.matmul(w2, cols, out=wide[:, : m * wp]).reshape(c_out, m, wp)
        np.add(prod[:, :, :w], bias[:, None, None], out=out[b, :, rows])
    return out


def _conv2d_same(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """k x k convolution (k odd, k > 1), stride 1, same padding, as one
    graph node: row-blocked im2col on the flat row-padded layout.

    im2col's whole-image column matrix is never built: each image goes
    through ``_column_blocks``, whose column buffer holds about
    ``_CONV_BLOCK`` elements, and each block is one
    ``W.reshape(C_out, C_in*k*k) @ cols``, the matrix that im2col
    multiplied, in the same K order. The GEMM runs image by image, so an
    image's output does not depend on the batch it rides in.

    The weight gradient sums, image by image and block by block,
    ``g_blk @ cols_blk.T``, where ``g_blk`` is the block's upstream
    gradient in the wide layout with its wrapped columns zero. The input
    gradient is the forward kernel applied to ``g`` with W flipped 180
    degrees and transposed to (C_in, C_out, k, k): at stride 1 with same
    padding that correlation is the conv's adjoint, so no col2im scatter is
    needed. Both reorder im2col's sums over the batch and the kernel taps
    and agree with them to float rounding. The bias gradient is a
    ``_channel_sum``.
    """
    _, c, h, w = x.shape
    c_out, _, k, _ = weight.shape
    xd, wd = x.data, weight.data
    xn, wn, bn = x.node, weight.node, bias.node
    out_data = _correlate_same(xd, wd, bias.data)

    def bwd(g):
        wp = w + k - 1
        gw = np.zeros((c_out, c * k * k), dtype=np.result_type(xd, g))
        gb = np.zeros((c_out, _block_rows(c, k, h, wp), wp), dtype=g.dtype)
        for b, rows, cols in _column_blocks(xd, k):
            m = rows.stop - rows.start
            gb[:, :m, :w] = g[b, :, rows]
            gw += gb[:, :m].reshape(c_out, m * wp) @ cols.T
        _accum(wn, gw.reshape(wd.shape))
        _accum(bn, _channel_sum(g))
        if xn is not None:
            flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            _accum(xn, _correlate_same(g, flipped, np.zeros(c, dtype=g.dtype)))

    return _make(out_data, (x, weight, bias), bwd)


# float32 elements in one block of the depthwise kernel, channels of one image
# or of a run of images: 256 KiB, so the input buffer and the three wide
# scratch buffers stay in a 2 MiB per-core L2 cache across the k*k passes
_DEPTHWISE_BLOCK = 1 << 16


def _depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel k x k convolution (k odd), stride 1, ``pad = (k - 1)/2``.

    Forward and backward work on one block of about ``_DEPTHWISE_BLOCK``
    elements at a time, so that each pass over a tap stays in cache: the
    slice of one image's channels that fits or, when all fit, every channel
    of a run of consecutive images. In the layout of ``_padded_flat`` a tap
    of the whole run is the plain slice ``xf[:m, s:s + L]``, so each
    multiply or add is one pass into contiguous scratch rows, run with
    numpy's buffer cut to one image's wide rows: numpy copies every operand
    of a pass whose rows are shorter than about a third of its buffer, which
    made the passes at 16 x 16 to 32 x 32 three times slower.

    The summation order is part of the contract, because training amplifies
    last-ulp differences, and an image's outputs come from its own padded
    plane through the same elementwise operations, so a batch gives every
    image the bits of a one-image call. The forward sums each kernel row
    left to right, row 0 in the accumulator and every later row in a row
    buffer that it then adds to it, in row order, then adds the bias: this
    equals ``einsum("nchwij,cij->nchw")`` over the sliding windows value for
    value at k = 1 and 3 (only the sign of a zero may differ), and agrees to
    float rounding at other k.

    The input gradient is a gather with the bits of a scatter of the shifts
    in (i, j) order. For weight (i, j) it reads g's tap
    (k - 1 - i, k - 1 - j), so input (y, x) reads g at padded position
    (y + 2*pad - i, x + 2*pad - j). Each input sums all k*k taps from +0 in
    (i, j) order, where the scatter summed only those in range. With finite
    weights the others are zeros, and a sum started at +0 is never -0 in
    round-to-nearest, so adding them changes no bit, not even the sign of a
    zero.

    The weight gradient is the one sum whose order is not kept. Per image
    and kernel row i, ``einsum("ckl,cl->ck")`` of the x taps
    ``i*wp .. i*wp + k - 1`` with g's centre tap gives the row's k dot
    products over the block's channels, added to a ``(c, k, k)`` accumulator
    in batch order, under numpy's own buffer, with which einsum at k = 1
    rounds one channel differently from several. Against the sliding-window
    ``einsum("nchwij,nchw->cij")`` it replaced, each entry differs by at most
    ``2*m*eps*sum|x*g|`` over its m = n*h*w products, eps of the dtype.
    """
    n, c, h, w = x.shape
    cw, one, k, _ = weight.shape
    if cw != c or one != 1:
        raise ShapeError(f"depthwise weight {weight.shape} incompatible with input channels {c}")
    dw = weight.data.reshape(c, k, k)
    pad, wp, plane = (k - 1) // 2, w + k - 1, (h + k - 1) * (w + k - 1)
    cb = min(c, max(1, _DEPTHWISE_BLOCK // (h * wp)))
    nb = min(n, max(1, _DEPTHWISE_BLOCK // (cb * plane)))
    # (images, channels, run length, channel count, wide positions of the run)
    blocks = [(slice(b0, b0 + nb), slice(c0, c0 + cb), min(nb, n - b0), min(cb, c - c0),
               (min(nb, n - b0) - 1) * plane + h * wp) for b0 in range(0, n, nb) for c0 in range(0, c, cb)]
    row_buffer = max(16, min(np.getbufsize(), h * wp) // 16 * 16)  # numpy takes multiples of 16

    def planes(a, r):  # the (r, m, h, w) output positions of a block's scratch rows
        strides = (a.strides[0],) + tuple(v * a.itemsize for v in (plane, wp, 1))
        return as_strided(a, (len(a), r, h, w), strides).transpose(1, 0, 2, 3)

    out_data = np.empty((n, c, h, w), dtype=np.result_type(x.data, dw))
    xf, x_in = _padded_flat(cb, nb, h, w, k, x.dtype)
    acc, row, tmp = np.empty((3, cb * blocks[0][4]), dtype=out_data.dtype)
    old_buffer = np.setbufsize(row_buffer)
    try:
        for bs, cs, r, m, span in blocks:
            x_in[:m, :r] = x.data[bs, cs].transpose(1, 0, 2, 3)
            a, rw, t = (buf[: m * span].reshape(m, span) for buf in (acc, row, tmp))
            for i in range(k):
                ri = np.multiply(xf[:m, i * wp : i * wp + span], dw[cs, i, 0, None], out=rw if i else a)
                for j in range(1, k):
                    s = i * wp + j
                    ri += np.multiply(xf[:m, s : s + span], dw[cs, i, j, None], out=t)
                if i:
                    a += rw
            np.add(planes(a, r), bias.data[cs, None, None], out=out_data[bs, cs])
    finally:
        np.setbufsize(old_buffer)
    xd, xn, wn, bn = x.data, x.node, weight.node, bias.node

    def bwd(g):
        xb, xb_in = _padded_flat(cb, nb, h, w, k, xd.dtype)
        gf, gf_in = _padded_flat(cb, nb, h, w, k, g.dtype)
        xtaps = sliding_window_view(xb, h * wp, axis=1)
        gwt = np.zeros((c, k, k), dtype=np.result_type(xd, g))
        if xn is not None:
            gx, acc = np.empty((n, c, h, w), xd.dtype), np.empty(cb * blocks[0][4], xd.dtype)
            prod = np.empty(acc.size, dtype=np.result_type(g, dw))
        for bs, cs, r, m, span in blocks:
            xb_in[:m, :r] = xd[bs, cs].transpose(1, 0, 2, 3)
            gf_in[:m, :r] = g[bs, cs].transpose(1, 0, 2, 3)
            for o in range(0, r * plane, plane):
                gm = gf[:m, o + pad * wp + pad : o + pad * wp + pad + h * wp]
                for i in range(k):
                    gwt[cs, i] += np.einsum("ckl,cl->ck", xtaps[:m, o + i * wp : o + i * wp + k], gm)
            if xn is not None:
                old_buffer = np.setbufsize(row_buffer)
                try:
                    a, p = (buf[: m * span].reshape(m, span) for buf in (acc, prod))
                    a.fill(0)
                    for i, j in np.ndindex(k, k):
                        s = (k - 1 - i) * wp + k - 1 - j
                        a += np.multiply(gf[:m, s : s + span], dw[cs, i, j, None], out=p)
                    gx[bs, cs] = planes(a, r)
                finally:
                    np.setbufsize(old_buffer)
        _accum(wn, gwt.reshape(c, 1, k, k))
        _accum(bn, g.sum(axis=(0, 2, 3)))
        if xn is not None:
            _accum(xn, gx)

    return _make(out_data.astype(x.dtype, copy=False), (x, weight, bias), bwd)


def separable_conv2d(x: Tensor, p: SeparableConv2dParams) -> Tensor:
    """Depthwise spatial convolution followed by 1x1 pointwise mixing."""
    mid = _depthwise_conv2d(x, p.depthwise_weight, p.depthwise_bias)
    return conv2d(mid, Conv2dParams(p.pointwise_weight, p.pointwise_bias))


# -- normalization, pooling, resampling -----------------------------------------


def batch_norm(x: Tensor, p: BatchNormParams, mode: str) -> Tensor:
    if mode == "train":
        return _batch_norm_train(x, p)
    if mode == "infer":
        return _batch_norm_infer(x, p)
    raise ValueError(f"unknown mode {mode!r}")


def _batch_norm_train(x: Tensor, p: BatchNormParams) -> Tensor:
    """Batch-statistics normalization as one node with the analytic backward
    of Ioffe & Szegedy (arXiv 1502.03167, section 3); updates the running
    statistics.

    Training amplifies last-ulp differences, so the backward runs the chain
    rule in the order and expression forms of the primitive graph it
    replaced, and keeps its bits: every reduction is a ``_channel_sum``,
    and x sums its x-hat term, then its variance term,
    then the mean's term. The node keeps the centred input ``d`` and the
    per-channel ``sd``; the backward recomputes ``xhat = d / sd`` with the
    forward's expression rather than keeping it.
    """
    n, c, h, w = x.shape
    if n * h * w < 2:
        raise ValueError(f"batch_norm train mode needs N*H*W >= 2, got {n * h * w}")
    stat = (1, c, 1, 1)
    gamma, beta = p.gamma, p.beta
    inv_count = np.asarray(1.0 / (n * h * w), dtype=x.dtype)
    mu = x.data.sum(axis=(0, 2, 3), keepdims=True) * inv_count
    d = x.data - mu
    var = (d**2).sum(axis=(0, 2, 3), keepdims=True) * inv_count
    m = BN_MOMENTUM
    p.running_mean = ((1 - m) * p.running_mean + m * mu.reshape(c)).astype(p.running_mean.dtype)
    p.running_var = ((1 - m) * p.running_var + m * var.reshape(c)).astype(p.running_var.dtype)
    ve = var + np.asarray(BN_EPS, dtype=x.dtype)
    sd = ve**0.5
    xhat = d / sd
    gamma_s = gamma.data.reshape(stat)
    out_data = xhat * gamma_s + beta.data.reshape(stat)
    xn, gn, bn = x.node, gamma.node, beta.node

    def bwd(g):
        _accum(gn, _channel_sum(g * (d / sd)))
        _accum(bn, _channel_sum(g))
        if xn is None:
            return
        g_xhat = g * gamma_s
        # div's -g*a/(b*b) and power's g*p*x**(p-1), as the primitive ops
        # wrote them; x**1 is x, so the square's power term multiplies by d
        g_sd = _channel_sum(-g_xhat * d / (sd * sd)).reshape(stat)
        g_var = g_sd * 0.5 * ve ** (0.5 - 1)
        g_d_xhat = g_xhat / sd
        g_d_var = g_var * inv_count * 2 * d
        g_mu = (_channel_sum(-g_d_xhat) + _channel_sum(-g_d_var)).reshape(stat)
        g_x = g_d_xhat + g_d_var
        g_x += g_mu * inv_count
        _accum(xn, g_x)

    return _make(out_data, (x, gamma, beta), bwd)


def _batch_norm_infer(x: Tensor, p: BatchNormParams) -> Tensor:
    """Fixed-statistics batch norm as one per-channel multiply-add, forward
    only: no command differentiates through it, so a backward that reaches
    its node raises ``RuntimeError``.

    ``scale = gamma / sqrt(running_var + eps)`` and
    ``shift = beta - running_mean * scale`` are folded once per call, so the
    output costs one product and one in-place add. This rounds differently
    from normalizing first and then scaling, by a few ulp of the output.
    """
    c = x.shape[1]
    scale = p.gamma.data / np.sqrt(p.running_var + BN_EPS)
    shift = p.beta.data - p.running_mean * scale
    out_data = x.data * scale.reshape(1, c, 1, 1)
    out_data += shift.reshape(1, c, 1, 1)
    return _make(out_data, (x, p.gamma, p.beta), _batch_norm_infer_backward)


def _batch_norm_infer_backward(g):
    raise RuntimeError("infer-mode batch norm has no gradient; differentiate in train mode")


def max_pool_2x2(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max; gradient routes to the argmax (ties: first
    position in row-major scan).

    The forward is the elementwise max of the four strided views of the
    input, with no window copy; NaN propagates as the argmax picks it. The
    views are taken last to first because ``np.maximum`` returns its second
    argument on a tie, so even a tie of -0.0 and +0.0 keeps the first
    position's zero. The backward routes with the argmax's rules: each flat
    column pair (a window row) picks its left element if it is at least the
    right one or NaN, then each row pair its top row if that row's
    ``np.maximum`` equals the output or is NaN. Each pick is a bit mask in
    g's integer width, which keeps g's bits.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool_2x2 needs even spatial dims, got {h}x{w}")
    wo, d, xn = w // 2, x.data, x.node
    out_data = np.maximum(d[:, :, 1::2, 1::2], d[:, :, 1::2, 0::2])
    np.maximum(out_data, d[:, :, 0::2, 1::2], out=out_data)
    np.maximum(out_data, d[:, :, 0::2, 0::2], out=out_data)

    def bwd(g):
        bits = np.dtype(f"i{g.itemsize}")
        pairs = d.reshape(-1, 2)
        left = -((pairs[:, 0] >= pairs[:, 1]) | np.isnan(pairs[:, 0])).astype(bits)
        top_max = np.maximum(pairs[:, 0], pairs[:, 1]).reshape(-1, 2, wo)[:, 0]
        top = -((top_max == out_data.reshape(-1, wo)) | np.isnan(top_max)).astype(bits)
        g_bits = g.reshape(-1, wo).view(bits)
        g_rows = np.stack([g_bits & top, g_bits & ~top], axis=1).reshape(-1)
        gx = np.stack([g_rows & left, g_rows & ~left], axis=1)
        _accum(xn, gx.view(g.dtype).reshape(n, c, h, w))

    return _make(out_data, (x,), bwd)


def _upsample2x_axis(data, axis):
    """Double one axis. With half-pixel centres, output 2m is
    ``x[m-1]*.25 + x[m]*.75`` and output 2m+1 is ``x[m]*.75 + x[m+1]*.25``;
    the clamped borders weigh their two taps 1 and 0. The border products
    are kept, so the result equals the weighted two-tap gather bit for bit,
    non-finite inputs included. Neighbours along the axis sit q apart in
    the flat array, so each pass runs over the whole tensor as one span; the
    border lines, where a span crosses planes, are then rewritten, and one
    stack interleaves the even and odd lines."""
    s, q = data.shape[axis], math.prod(data.shape[axis + 1 :])
    x = data.reshape(-1)
    even, odd = np.empty((2, x.size), dtype=data.dtype)
    np.multiply(x[:-q], 0.25, out=even[q:])
    even[q:] += x[q:] * 0.75
    np.multiply(x[:-q], 0.75, out=odd[:-q])
    odd[:-q] += x[q:] * 0.25
    xl, el, ol = (a.reshape(-1, s, q) for a in (x, even, odd))
    el[:, 0] = xl[:, 0] * 1.0 + xl[:, min(1, s - 1)] * 0.0
    ol[:, -1] = xl[:, -1] * 1.0 + xl[:, -1] * 0.0
    return np.stack([el, ol], axis=2).reshape(data.shape[:axis] + (2 * s,) + data.shape[axis + 1 :])


def _upsample2x_axis_adjoint(g, axis):
    """Transpose of ``_upsample2x_axis``: halve one axis of ``g``.

    Each source m gathers its four taps in the order a scatter-add over
    the output index would add them, first the left-tap weights and then
    the right-tap weights, each pass by ascending output index:
    ``((g[2m+1]*.75 + g[2m+2]*.25) + g[2m-1]*.25) + g[2m]*.75``, with the
    border taps (weights 1 and 0) in their places. One copy de-interleaves
    g's even and odd lines, and the passes run as in the forward.
    """
    s, q = g.shape[axis] // 2, math.prod(g.shape[axis + 1 :])
    even, odd = np.ascontiguousarray(g.reshape(-1, s, 2, q).transpose(2, 0, 1, 3)).reshape(2, -1)
    out = np.empty(g.shape[:axis] + (s,) + g.shape[axis + 1 :], dtype=g.dtype)
    gx = out.reshape(-1)
    el, ol, gl = (a.reshape(-1, s, q) for a in (even, odd, gx))
    if s == 1:
        np.add(even * 1.0, odd * 1.0, out=gx)
        gx += even * 0.0
        gx += odd * 0.0
        return out
    np.multiply(odd, 0.75, out=gx)
    gx[:-q] += even[q:] * 0.25
    gl[:, -1] = ol[:, -1] * 1.0
    gl[:, 1] += el[:, 0] * 0.0
    gx[q:] += odd[:-q] * 0.25
    gx += even * 0.75
    gl[:, -1] += ol[:, -1] * 0.0
    gl[:, 0] = el[:, 0] * 1.0 + ol[:, 0] * 0.75
    gl[:, 0] += el[:, 1] * 0.25
    return out


def bilinear_upsample_2x(x: Tensor) -> Tensor:
    """2x bilinear upsampling with half-pixel centers and border clamping."""
    out_data = _upsample2x_axis(_upsample2x_axis(x.data, 2), 3)
    xn = x.node

    def bwd(g):
        _accum(xn, _upsample2x_axis_adjoint(_upsample2x_axis_adjoint(g, 3), 2))

    return _make(out_data, (x,), bwd)


def pixel_shuffle(x: Tensor) -> Tensor:
    """Rearrange each group of 4 channels into a 2x2 block of a 2x larger
    spatial grid (Shi et al., arXiv 1609.05158).

    Pure permutation with zero parameters; the backward pass is the
    inverse permutation.
    """
    n, c, h, w = x.shape
    r = 2
    if c % (r * r):
        raise ShapeError(f"pixel_shuffle needs channels divisible by {r * r}, got {c}")
    co = c // (r * r)
    out_data = (
        x.data.reshape(n, co, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, co, h * r, w * r)
    )
    xn = x.node

    def bwd(g):
        _accum(
            xn,
            g.reshape(n, co, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c, h, w),
        )

    return _make(out_data, (x,), bwd)


def dropout(x: Tensor, rate: float, mode: str, rng: Rng) -> Tensor:
    """Train-mode inverted dropout: zero each element with probability
    ``rate``, in [0, 1), and scale the survivors by 1 / (1 - rate). Only a
    train forward calls it, so any other mode, or a missing ``rng``, is an
    error.
    """
    if mode != "train" or rng is None:
        raise ValueError(f"dropout runs only in train mode with an Rng, got mode {mode!r}")
    keep = rng.uniform(size=x.shape) >= rate
    dtype, xn = x.dtype, x.node

    def bwd(g):
        # the node keeps the boolean mask and rebuilds the scaled one
        _accum(xn, g * (keep.astype(dtype) / (1.0 - rate)))

    return _make(x.data * (keep.astype(dtype) / (1.0 - rate)), (x,), bwd)


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, stabilized by max-subtraction."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    xn = x.node

    def bwd(g):
        _accum(xn, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _make(s, (x,), bwd)
