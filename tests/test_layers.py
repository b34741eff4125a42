import tracemalloc

import numpy as np
import pytest

import reference_ops
from reference_ops import add, depthwise_conv2d, mul, tensor_sum, unbroadcast
from sepseg import layers
from sepseg.autograd import (
    Rng,
    ShapeError,
    Tensor,
    _accum,
    _make,
    backward,
    grad_check,
    no_grad,
    relu,
)
from sepseg.gradcheck import project
from sepseg.layers import (
    _DEPTHWISE_BLOCK,
    BN_EPS,
    BN_MOMENTUM,
    _upsample2x_axis,
    _upsample2x_axis_adjoint,
    BatchNormParams,
    Conv2dParams,
    SeparableConv2dParams,
    batch_norm,
    bilinear_upsample_2x,
    conv2d,
    dropout,
    init_batch_norm,
    init_conv2d,
    init_separable_conv2d,
    max_pool_2x2,
    pixel_shuffle,
    separable_conv2d,
    softmax_channels,
)
from sepseg.preprocess import _linear_resample_coeffs


def _conv_oracle(x, weight, bias, pad):
    """Direct 6-loop cross-correlation."""
    n, ci, h, w = x.shape
    co, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    out = np.zeros((n, co, ho, wo))
    for ni in range(n):
        for o in range(co):
            for y in range(ho):
                for xx in range(wo):
                    acc = bias[o]
                    for c in range(ci):
                        for ky in range(k):
                            for kx in range(k):
                                acc += weight[o, c, ky, kx] * xp[ni, c, y + ky, xx + kx]
                    out[ni, o, y, xx] = acc
    return out


class TestConv2d:
    def test_1x1_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 3, 3)))
        p = Conv2dParams(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(conv2d(x, p).data, x.data, rtol=1e-6)

    def test_zero_weight_constant_output(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4, 4)))
        p = Conv2dParams(Tensor(np.zeros((2, 3, 3, 3))), Tensor([1.5, -0.5]))
        out = conv2d(x, p).data
        np.testing.assert_allclose(out[:, 0], 1.5, rtol=1e-6)
        np.testing.assert_allclose(out[:, 1], -0.5, rtol=1e-6)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        p = Conv2dParams(Tensor(w), Tensor(b))
        out = conv2d(Tensor(x), p).data
        assert np.abs(out - _conv_oracle(x, w, b, 1)).max() <= 1e-10

    def test_channel_mismatch(self):
        p = Conv2dParams(Tensor(np.zeros((2, 3, 3, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 4, 5, 5))), p)


def _im2col_conv_oracle(x, weight, bias, g):
    """The im2col + matmul composition that ``conv2d`` used for k x k
    kernels: output and the x, W and b gradients for upstream ``g``, with
    col2im as the scatter of the columns' gradient."""
    n, c, h, w = x.shape
    co, _, k, _ = weight.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * h * w)
    w2 = weight.reshape(co, c * k * k)
    out = (w2 @ cols).reshape(co, n, h, w).transpose(1, 0, 2, 3) + bias.reshape(1, co, 1, 1)
    g2 = g.transpose(1, 0, 2, 3).reshape(co, n * h * w)
    gcols = (w2.T @ g2).reshape(c, k, k, n, h, w)
    gxp = np.zeros_like(xp)
    for i, j in np.ndindex(k, k):
        gxp[:, :, i : i + h, j : j + w] += gcols[:, i, j].transpose(1, 0, 2, 3)
    gx = gxp[:, :, pad : pad + h, pad : pad + w]
    return out, gx, (g2 @ cols.T).reshape(weight.shape), g.sum(axis=(0, 2, 3))


class TestConv2dSame:
    # (n, c_in, c_out, h, w, rows), float64. The block is set so that the
    # forward's blocks hold ``rows`` rows and the last one of each image is
    # partial; the input gradient's blocks, sized by c_out, split the rows
    # too.
    CASES = [(2, 1, 3, 7, 5, 2), (2, 5, 4, 6, 9, 4), (2, 5, 2, 9, 4, 2)]

    @staticmethod
    def _case(monkeypatch, shape, k, seed):
        n, c_in, c_out, h, w, rows = shape
        block = c_in * k * k * (w + k - 1)
        monkeypatch.setattr(layers, "_CONV_BLOCK", rows * block + block // 2)
        assert layers._block_rows(c_in, k, h, w + k - 1) == rows and h % rows
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, c_in, h, w)), rng.normal(size=(c_out, c_in, k, k)),
                rng.normal(size=c_out), rng.normal(size=(n, c_out, h, w)))

    @pytest.mark.parametrize("shape", CASES)
    @pytest.mark.parametrize("k", [3, 5])
    def test_forward_equals_direct_loop_oracle(self, shape, k, monkeypatch):
        x, w, b, _ = self._case(monkeypatch, shape, k, seed=0)
        out = conv2d(Tensor(x), Conv2dParams(Tensor(w), Tensor(b)))
        assert out.dtype == np.float64 and out.shape == (shape[0], shape[2]) + shape[3:5]
        np.testing.assert_allclose(out.data, _conv_oracle(x, w, b, (k - 1) // 2),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", CASES)
    @pytest.mark.parametrize("k", [3, 5])
    def test_gradients_equal_im2col_composition(self, shape, k, monkeypatch):
        x, w, b, g = self._case(monkeypatch, shape, k, seed=1)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv2d(xt, Conv2dParams(wt, bt))
        backward(project(out, g))
        want = _im2col_conv_oracle(x, w, b, g)
        for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == np.float64
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_graph_node(self):
        x = Tensor(np.ones((2, 3, 5, 4), dtype=np.float32), requires_grad=True)
        p = init_conv2d(3, 4, 3, Rng(0), np.float32)
        out = conv2d(x, p)
        assert out._parents == (x.node, p.weight.node, p.bias.node)

    def test_even_kernel_rejected(self):
        p = Conv2dParams(Tensor(np.zeros((2, 3, 2, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 3, 5, 5))), p)

    # every layer, dropout and the loss included, is one node; proposed made
    # 96 while a separable conv was a depthwise node and a 1x1 conv node
    @pytest.mark.parametrize("variant,bound", [("proposed", 78), ("baseline-unet", 78)])
    def test_train_step_node_count(self, variant, bound, made_nodes):
        from sepseg.metrics import weighted_cross_entropy
        from sepseg.model import ModelSpec, build_model, forward

        model = build_model(ModelSpec(variant=variant, base_depth=8), Rng(0, 0))
        x = Tensor(np.random.default_rng(4).normal(size=(4, 1, 64, 64)).astype(np.float32))
        labels = np.random.default_rng(1).integers(0, 2, (4, 64, 64))
        probs = forward(model, x, "train", rng=Rng(0, 1))
        weighted_cross_entropy(probs, labels, np.array([1.0, 1.0]))
        linked = [t for t, is_linked in made_nodes if is_linked]
        assert len(linked) <= bound


def _depthwise_einsum_oracle(x, weight, bias, pad):
    """The seed's depthwise forward: one einsum over the sliding windows."""
    c, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("nchwij,cij->nchw", win, weight.reshape(c, k, k)) + bias[None, :, None, None]
    return out.astype(x.dtype, copy=False)


def _depthwise_input_grad_oracle(g, weight, pad):
    """The seed's depthwise input gradient: k*k shifted scatters in (i, j) order."""
    n, c, ho, wo = g.shape
    k = weight.shape[2]
    dw = weight.reshape(c, k, k)
    gpad = np.zeros((n, c, ho + k - 1, wo + k - 1), dtype=g.dtype)
    for i in range(k):
        for j in range(k):
            gpad[:, :, i : i + ho, j : j + wo] += g * dw[None, :, i, j, None, None]
    return gpad[:, :, pad : pad + ho, pad : pad + wo]


def _depthwise_weight_grad_oracle(x, g, k, pad):
    """The seed's depthwise weight gradient: one einsum over the sliding
    windows of the zero-padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("nchwij,nchw->cij", win, g).reshape(x.shape[1], 1, k, k)


def _depthwise_weight_grad_rows_oracle(x, g, k):
    """The depthwise weight gradient as the kernel computed it while g had a
    buffer of its own: per (batch, channel-slice) block, x in the flat
    zero-bordered layout and g in a contiguous ``(channels, h, wp)`` buffer
    whose k - 1 wrapped columns are zero; for kernel row i, the k dot
    products ``einsum("ckl,cl->ck")`` of x's taps ``i*wp .. i*wp + k - 1``
    with the flat g, summed block by block in batch order."""
    n, c, h, w = x.shape
    pad, hp, wp = (k - 1) // 2, h + k - 1, w + k - 1
    cb = min(c, max(1, _DEPTHWISE_BLOCK // (h * wp)))
    xb = np.zeros((cb, hp * wp + k - 1), dtype=x.dtype)
    xtaps = np.lib.stride_tricks.sliding_window_view(xb, h * wp, axis=1)
    gb = np.zeros((cb, h, wp), dtype=g.dtype)
    gwt = np.zeros((c, k, k), dtype=np.result_type(x, g))
    for b, c0 in np.ndindex(n, -(-c // cb)):
        cs, m = slice(c0 * cb, (c0 + 1) * cb), min(cb, c - c0 * cb)
        xb[:m, : hp * wp].reshape(m, hp, wp)[:, pad : pad + h, pad : pad + w] = x[b, cs]
        gb[:m, :, :w] = g[b, cs]
        gm = gb[:m].reshape(m, h * wp)
        for i in range(k):
            gwt[cs, i] += np.einsum("ckl,cl->ck", xtaps[:m, i * wp : i * wp + k], gm)
    return gwt.reshape(c, 1, k, k)


def _weight_grad_bound(x, g, k, pad, dtype):
    """Two orders of summing the m = n*ho*wo products of one weight-gradient
    entry each err by at most m * eps * sum|x*g|, so they differ by at most
    twice that."""
    n, _, ho, wo = g.shape
    terms = _depthwise_weight_grad_oracle(np.abs(x).astype(np.float64),
                                          np.abs(g).astype(np.float64), k, pad)
    return 2 * n * ho * wo * np.finfo(dtype).eps * terms


def _depthwise_case(shape, k, dtype, transposed=False):
    """Depthwise output and input gradient for a random input, plus the
    numpy arrays the oracles take."""
    rng = np.random.default_rng(0)
    n, c, h, w = shape
    x = rng.normal(size=(n, c, w, h) if transposed else shape).astype(dtype)
    if transposed:
        x = x.transpose(0, 1, 3, 2)  # a strided view, not C-contiguous
    weight = rng.normal(size=(c, 1, k, k)).astype(dtype)
    bias = rng.normal(size=c).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    out = depthwise_conv2d(xt, Tensor(weight, requires_grad=True), Tensor(bias))
    backward(project(out, g))
    return out.data, xt.grad, (x, weight, bias, g)


# (2, 7, 129, 129): 3 channels of 129^2 per block, so blocks of 3, 3 and 1 channels
DEPTHWISE_SHAPES = [(2, 7, 129, 129), (4, 16, 64, 64), (1, 3, 5, 5), (3, 70, 4, 4)]


def _depthwise_row_buffer_oracle(x, weight, bias):
    """The depthwise kernel before the flat layout: a row-buffer forward on
    (channels, rows, columns) blocks sized by ho*wo, and an input gradient
    that scatters the k*k shifts in (i, j) order into a zeroed padded copy."""
    n, c, h, w = x.shape
    k = weight.shape[2]
    pad = (k - 1) // 2
    dw = weight.data.reshape(c, k, k)
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cb = min(c, max(1, _DEPTHWISE_BLOCK // (ho * wo)))
    blocks = [(b, slice(c0, c0 + cb)) for b in range(n) for c0 in range(0, c, cb)]
    dtype = np.result_type(x.data, dw)
    out_data = np.empty((n, c, ho, wo), dtype=dtype)
    xpad = np.zeros((cb, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    row = np.empty((cb, ho, wo), dtype=dtype)
    tmp = np.empty_like(row)
    for b, cs in blocks:
        o = out_data[b, cs]
        xs, r, t = xpad[: o.shape[0]], row[: o.shape[0]], tmp[: o.shape[0]]
        xs[:, pad : pad + h, pad : pad + w] = x.data[b, cs]
        for i in range(k):
            ri = o if i == 0 else r
            np.multiply(xs[:, i : i + ho, :wo], dw[cs, i, 0, None, None], out=ri)
            for j in range(1, k):
                np.multiply(xs[:, i : i + ho, j : j + wo], dw[cs, i, j, None, None], out=t)
                ri += t
            if i:
                o += r
        o += bias.data[cs, None, None]

    def bwd(g):
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        _accum(weight.node, np.einsum("nchwij,nchw->cij", win, g).reshape(c, 1, k, k))
        _accum(bias.node, g.sum(axis=(0, 2, 3)))
        if x.node is not None:
            gpad = np.zeros_like(xp)
            prod = np.empty((cb, ho, wo), dtype=np.result_type(g, dw))
            for b, cs in blocks:
                gs, gp = g[b, cs], gpad[b, cs]
                pb = prod[: gs.shape[0]]
                for i in range(k):
                    for j in range(k):
                        np.multiply(gs, dw[cs, i, j, None, None], out=pb)
                        gp[:, i : i + ho, j : j + wo] += pb
            _accum(x.node, gpad[:, :, pad : pad + h, pad : pad + w] if pad else gpad)

    return _make(out_data.astype(x.dtype, copy=False), (x, weight, bias), bwd)


def _depthwise_run(conv, x, weight, bias, g, k):
    """Output and input gradient of one call of ``conv`` with upstream ``g``."""
    xt = Tensor(x, requires_grad=True)
    out = conv(xt, Tensor(weight, requires_grad=True), Tensor(bias))
    backward(project(out, g))
    return out.data, xt.grad


def _assert_equal_to_row_buffer_kernel(x, weight, bias, g, k):
    """Output and input gradient equal the row-buffer kernel's, NaN positions
    and the sign bits of everything else included."""
    runs = [_depthwise_run(conv, x, weight, bias, g, k)
            for conv in (depthwise_conv2d, _depthwise_row_buffer_oracle)]
    for got, want in zip(*runs):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got) | np.isnan(got),
                                      np.signbit(want) | np.isnan(want))


# w = 1 and h = 1 planes; at k > 1, (2, 8, 128, 128) gets blocks of 3, 3 and
# 2 channels from the wide span 128 * (127 + k), where the row-buffer kernel
# took 4 and 4. When all of an image's channels fit in a block, the block
# holds a run of images: (7, 3, 64, 64) runs them 5 and 2 (k = 1, 3) or 4
# and 3 (k = 5, 7), so its last run is partial (at 128 x 128 a run would be
# one image), and (4, 128, 4, 4) runs all four in one block.
ROW_BUFFER_SHAPES = DEPTHWISE_SHAPES + [(2, 3, 9, 1), (2, 3, 1, 9), (2, 8, 128, 128),
                                        (7, 3, 64, 64), (4, 128, 4, 4)]


def _depthwise_run_length(shape, k):
    """Images in one block of the depthwise kernel: as many as fit when all
    of an image's channels fit, else one."""
    n, c, h, w = shape
    cb = min(c, max(1, _DEPTHWISE_BLOCK // (h * (w + k - 1))))
    return min(n, max(1, _DEPTHWISE_BLOCK // (cb * (h + k - 1) * (w + k - 1))))


class TestDepthwiseKernel:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape", DEPTHWISE_SHAPES)
    def test_forward_equals_einsum_oracle(self, shape, k):
        out, _, (x, weight, bias, _) = _depthwise_case(shape, k, np.float32)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, _depthwise_einsum_oracle(x, weight, bias, (k - 1) // 2))

    @pytest.mark.parametrize("shape", DEPTHWISE_SHAPES)
    def test_forward_k5_within_float32_rounding(self, shape):
        out, _, (x, weight, bias, _) = _depthwise_case(shape, 5, np.float32)
        want = _depthwise_einsum_oracle(x, weight, bias, 2)
        # two orders of summing m = k*k + 1 float32 terms each err by at most
        # m * eps * sum|term|, so they differ by at most twice that
        terms = _depthwise_einsum_oracle(np.abs(x), np.abs(weight), np.abs(bias), 2)
        bound = 2 * 26 * np.finfo(np.float32).eps * terms
        assert np.all(np.abs(out - want) <= bound)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", DEPTHWISE_SHAPES)
    def test_input_grad_equals_scatter_oracle(self, shape, k):
        _, gx, (_, weight, _, g) = _depthwise_case(shape, k, np.float32)
        np.testing.assert_array_equal(gx, _depthwise_input_grad_oracle(g, weight, (k - 1) // 2))

    @pytest.mark.parametrize("k", [1, 3])
    def test_transposed_view_input(self, k):
        out, gx, (x, weight, bias, g) = _depthwise_case((2, 5, 33, 20), k, np.float32,
                                                         transposed=True)
        assert not x.flags.c_contiguous
        pad = (k - 1) // 2
        np.testing.assert_array_equal(out, _depthwise_einsum_oracle(x, weight, bias, pad))
        np.testing.assert_array_equal(gx, _depthwise_input_grad_oracle(g, weight, pad))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_float64_stays_float64(self, k):
        out, gx, (x, weight, bias, g) = _depthwise_case((2, 7, 129, 129), k, np.float64)
        assert out.dtype == gx.dtype == np.float64
        pad = (k - 1) // 2
        np.testing.assert_allclose(out, _depthwise_einsum_oracle(x, weight, bias, pad),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(gx, _depthwise_input_grad_oracle(g, weight, pad))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", ROW_BUFFER_SHAPES)
    def test_equals_row_buffer_kernel(self, shape, k):
        rng = np.random.default_rng(5)
        x, g = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        weight = rng.normal(size=(shape[1], 1, k, k)).astype(np.float32)
        bias = rng.normal(size=shape[1]).astype(np.float32)
        _assert_equal_to_row_buffer_kernel(x, weight, bias, g, k)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_non_finite_borders_stay_in_place(self, k):
        # a wrapped column of the flat layout reads the next row's first
        # column; a non-finite value there must reach only its own outputs
        rng = np.random.default_rng(6)
        shape = (2, 4, 11, 9)
        x, g = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        for a in (x, g):
            a[:, 0, :, 0] = np.inf
            a[:, 1, :, -1] = -np.inf
            a[:, 2, -1, :] = np.nan
            a[:, 3, 2, 0], a[:, 3, 5, -1], a[:, 3, -1, 4] = np.nan, np.inf, -np.inf
        weight = rng.normal(size=(4, 1, k, k)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        with np.errstate(invalid="ignore"):
            _assert_equal_to_row_buffer_kernel(x, weight, bias, g, k)
            assert np.isnan(_depthwise_run(depthwise_conv2d, x, weight, bias, g, k)[1]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_signed_zeros_and_exact_cancellation(self, k, dtype):
        # small integers sum exactly, so many outputs cancel to a zero whose
        # sign only the summation order decides; over the -0.0 rows every
        # term of channel 0, with its positive weights, is -0.0
        rng = np.random.default_rng(7)
        shape = (2, 3, 20, 7)
        vals = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], dtype=dtype)
        x, g = rng.choice(vals, size=shape), rng.choice(vals, size=shape)
        x[:, :, :12] = g[:, :, :12] = -0.0
        weight, bias = rng.choice(vals, size=(3, 1, k, k)), rng.choice(vals, size=3)
        weight[0], bias[0] = np.abs(weight[0]) + 1, -0.0
        _assert_equal_to_row_buffer_kernel(x, weight, bias, g, k)

    def test_model_equals_row_buffer_kernel(self, monkeypatch):
        # one train step with the separable node and with a depthwise node of
        # the row-buffer oracle under each 1x1 conv: every array has the
        # same bits except the depthwise weight gradients, whose sums run in
        # another order and stay within float32 rounding
        from sepseg import model as model_module
        from sepseg.metrics import weighted_cross_entropy

        x = Tensor(np.random.default_rng(4).normal(size=(4, 1, 64, 64)).astype(np.float32))
        labels = np.random.default_rng(1).integers(0, 2, (4, 64, 64))
        calls = {}  # weight tensor id -> (x, g, k, pad) of its depthwise call

        def recording(xt, weight, bias):
            out = _depthwise_row_buffer_oracle(xt, weight, bias)
            if out.node is None:  # the infer forward records no node
                return out
            bwd = out._backward

            def recording_bwd(g):
                k = weight.shape[2]
                calls[id(weight)] = (xt.data, g, k, (k - 1) // 2)
                bwd(g)

            out._backward = recording_bwd
            return out

        def two_nodes(xt, p):
            mid = recording(xt, p.depthwise_weight, p.depthwise_bias)
            return conv2d(mid, Conv2dParams(p.pointwise_weight, p.pointwise_bias))

        def step():
            model = model_module.build_model(model_module.ModelSpec(base_depth=8), Rng(0, 0))
            probs = model_module.forward(model, x, "train", rng=Rng(0, 1))
            loss = weighted_cross_entropy(probs, labels, np.array([1.0, 3.0]))
            backward(loss)
            with no_grad():
                infer = model_module.forward(model, x, "infer")
            params = model.named_parameters()
            arrays = {"loss": loss.data, "infer": infer.data, **model.named_statistics()}
            arrays.update((f"{name}.grad", t.grad) for name, t in params.items())
            return arrays, {name: calls.get(id(t)) for name, t in params.items()}

        got, _ = step()
        monkeypatch.setattr(model_module, "separable_conv2d", two_nodes)
        want, by_name = step()
        assert got.keys() == want.keys()
        differ = set()
        for name in got:
            try:
                _assert_bits_equal([got[name]], [want[name]])
            except AssertionError:
                differ.add(name)
        dw_weights = {f"{name}.grad" for name in by_name if name.endswith(".dw_weight")}
        assert len(dw_weights) == 18 and differ <= dw_weights
        for name in dw_weights:
            xd, g, k, pad = by_name[name[: -len(".grad")]]
            bound = _weight_grad_bound(xd, g, k, pad, np.float32)
            assert np.all(np.abs(got[name].astype(np.float64) - want[name]) <= bound), name

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", ROW_BUFFER_SHAPES)
    def test_weight_grad_within_float32_rounding(self, shape, k):
        rng = np.random.default_rng(8)
        x, g = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        weight = Tensor(rng.normal(size=(shape[1], 1, k, k)).astype(np.float32),
                        requires_grad=True)
        pad = (k - 1) // 2
        out = depthwise_conv2d(Tensor(x), weight, Tensor(np.zeros(shape[1], np.float32)))
        backward(project(out, g))
        assert weight.grad.dtype == np.float32
        want = _depthwise_weight_grad_oracle(x.astype(np.float64), g.astype(np.float64), k, pad)
        assert np.all(np.abs(weight.grad - want) <= _weight_grad_bound(x, g, k, pad, np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", ROW_BUFFER_SHAPES)
    def test_weight_grad_equals_per_row_einsum(self, shape, k, dtype):
        # the rounding bound above would let a layout change move these bits
        rng = np.random.default_rng(12)
        x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        weight = Tensor(rng.normal(size=(shape[1], 1, k, k)).astype(dtype), requires_grad=True)
        out = depthwise_conv2d(Tensor(x), weight, Tensor(np.zeros(shape[1], dtype)))
        backward(project(out, g))
        want = _depthwise_weight_grad_rows_oracle(x, g, k)
        assert weight.grad.dtype == want.dtype == dtype
        np.testing.assert_array_equal(weight.grad, want)
        np.testing.assert_array_equal(np.signbit(weight.grad), np.signbit(want))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_weight_grad_float64_stays_float64(self, k):
        rng = np.random.default_rng(9)
        shape = (2, 7, 129, 129)
        x, g = rng.normal(size=shape), rng.normal(size=shape)
        weight = Tensor(rng.normal(size=(7, 1, k, k)), requires_grad=True)
        pad = (k - 1) // 2
        out = depthwise_conv2d(Tensor(x), weight, Tensor(np.zeros(7)))
        backward(project(out, g))
        assert weight.grad.dtype == np.float64
        want = _depthwise_weight_grad_oracle(x, g, k, pad)
        assert np.all(np.abs(weight.grad - want) <= _weight_grad_bound(x, g, k, pad, np.float64))

    @pytest.mark.parametrize("k", [1, 5])
    def test_weight_grad_check(self, k):
        rng = np.random.default_rng(10)
        x, proj = rng.normal(size=(2, 3, 6, 5)), rng.normal(size=(2, 3, 6, 5))
        bias = Tensor(rng.normal(size=3))

        def f(weight):
            return project(depthwise_conv2d(Tensor(x), weight, bias), proj)

        assert grad_check(f, rng.normal(size=(3, 1, k, k))) <= 1e-4

    def test_backward_footprint_is_block_buffers(self):
        # padding the whole input for the weight gradient, as the einsum over
        # sliding windows did, would add 2.2 MB to the peak
        n, c, h, w, k = 4, 8, 128, 128, 3
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.normal(size=(c, 1, k, k)).astype(np.float32), requires_grad=True)
        bias = Tensor(np.zeros(c, dtype=np.float32), requires_grad=True)
        out = depthwise_conv2d(x, weight, bias)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x and g in the padded layout, (h + k - 1) * (w + k - 1) + k - 1
        # positions for each of the 3 channels that fit in a block, and for
        # x's gradient an accumulator and a product buffer of h * (w + k - 1)
        block = 3 * ((h + k - 1) * (w + k - 1) + k - 1) * 4
        # the input gradient, which _accum adopts without a copy
        assert peak <= x.data.nbytes + 4 * block + (64 << 10)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("side,c", [(4, 128), (8, 64), (32, 16)])
    def test_batch_gives_each_image_its_one_image_bits(self, side, c, k):
        # the three planes share each buffer row; inf and NaN on the borders
        # of the middle one must not reach the planes either side of it
        n = 3
        assert _depthwise_run_length((n, c, side, side), k) == n
        rng = np.random.default_rng(13)
        x, g = (rng.normal(size=(n, c, side, side)).astype(np.float32) for _ in range(2))
        for a in (x, g):
            a[1, :, -1, :] = np.inf
            a[1, :, :, -1] = -np.inf
            a[1, :, 0, :] = np.nan
        weight = rng.normal(size=(c, 1, k, k)).astype(np.float32)
        bias = rng.normal(size=c).astype(np.float32)
        with np.errstate(invalid="ignore"):
            batch = _depthwise_run(depthwise_conv2d, x, weight, bias, g, k)
            for b in range(n):
                one = _depthwise_run(depthwise_conv2d, x[b : b + 1], weight, bias,
                                     g[b : b + 1], k)
                for got, want in zip(batch, one):
                    np.testing.assert_array_equal(got[b], want[0])
                    np.testing.assert_array_equal(np.signbit(got[b]), np.signbit(want[0]))
        for got in batch:
            assert np.isnan(got[1]).any() and np.isfinite(got[[0, 2]]).all()

    @pytest.mark.parametrize("shape", [(4, 128, 4, 4), (4, 16, 32, 32)])
    def test_small_map_footprint_stays_within_the_block(self, shape):
        # a run of images fills a block, but no buffer grows past
        # _DEPTHWISE_BLOCK elements plus the k - 1 tail of each row
        k = 3
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.normal(size=(shape[1], 1, k, k)).astype(np.float32),
                        requires_grad=True)
        bias = Tensor(np.zeros(shape[1], dtype=np.float32), requires_grad=True)
        block = (_DEPTHWISE_BLOCK + shape[1] * (k - 1)) * 4
        # numpy's ufunc buffers (np.getbufsize() elements for each of three
        # operands) and small arrays
        slack = 3 * np.getbufsize() * 4 + (64 << 10)
        tracemalloc.start()
        try:
            with no_grad():
                out = depthwise_conv2d(x, weight, bias)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_peak <= out.data.nbytes + 4 * block + slack
        out = depthwise_conv2d(x, weight, bias)
        g = rng.normal(size=shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backward(g)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the input gradient, which _accum adopts without a copy, x and g in
        # the padded layout, an accumulator and a product buffer
        assert backward_peak <= x.data.nbytes + 4 * block + slack

    def test_numpy_buffer_size_is_restored(self):
        # the passes cut numpy's ufunc buffer; it must be back afterwards,
        # even when a pass raises, or later reductions would round otherwise
        size = np.getbufsize()
        x = Tensor(np.ones((2, 4, 8, 8), dtype=np.float32), requires_grad=True)
        weight = Tensor(np.ones((4, 1, 3, 3), dtype=np.float32), requires_grad=True)
        out = depthwise_conv2d(x, weight, Tensor(np.zeros(4, dtype=np.float32)))
        assert np.getbufsize() == size
        out._backward(np.ones(out.shape, dtype=np.float32))
        assert np.getbufsize() == size
        with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
            depthwise_conv2d(Tensor(np.full((2, 4, 8, 8), np.inf, dtype=np.float32)),
                              Tensor(np.zeros((4, 1, 3, 3), dtype=np.float32)),
                              Tensor(np.zeros(4, dtype=np.float32)))
        assert np.getbufsize() == size

    def test_infer_footprint_is_the_output_and_four_block_buffers(self):
        # padding the whole input, or a wide buffer for the whole output,
        # would each add 8.5 MB to the peak
        x = Tensor(np.ones((4, 8, 256, 256), dtype=np.float32))
        weight = Tensor(np.ones((8, 1, 3, 3), dtype=np.float32))
        bias = Tensor(np.zeros(8, dtype=np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                out = depthwise_conv2d(x, weight, bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = max(1, _DEPTHWISE_BLOCK // (256 * 258)) * (258 * 258 + 2) * 4
        assert peak <= out.data.nbytes + 4 * block + (64 << 10)


class TestConv1x1:
    @pytest.mark.parametrize("n,c_in,c_out,side", [(4, 1, 8, 32), (2, 24, 8, 16), (3, 16, 5, 7)])
    def test_matches_im2col_path(self, n, c_in, c_out, side):
        rng = np.random.default_rng(c_in)
        x_np = rng.normal(size=(n, c_in, side, side)).astype(np.float32)
        w_np = rng.normal(size=(c_out, c_in, 1, 1)).astype(np.float32)
        b_np = rng.normal(size=c_out).astype(np.float32)
        g = rng.normal(size=(n, c_out, side, side)).astype(np.float32)

        x, w, b = (Tensor(a, requires_grad=True) for a in (x_np, w_np, b_np))
        out = conv2d(x, Conv2dParams(w, b))
        backward(project(out, g))
        ref = _im2col_conv_oracle(x_np, w_np, b_np, g)
        assert out.dtype == np.float32
        # the per-image product and im2col's one GEMM may sum each output's
        # c_in products in different orders (OpenBLAS's Haswell sgemm does):
        # two orders of an n-term dot product differ by at most
        # 2 * n * eps * sum|terms|, here with the bias as one more term
        terms = np.einsum("oi,nihw->nohw", np.abs(w_np[:, :, 0, 0]), np.abs(x_np))
        terms += np.abs(b_np)[:, None, None]
        bound = 2 * (c_in + 1) * np.finfo(np.float32).eps * terms
        assert np.all(np.abs(out.data - ref[0]) <= bound)
        for got, want in zip((x.grad, w.grad, b.grad), ref[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_input_channel_has_the_bits_of_matmul_plus_bias(self, dtype):
        # the broadcast product differs from matmul's K = 1 product only in
        # the sign of a zero, which the bias add turns to +0.0; zero inputs
        # under negative weights make -0.0 products
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 1, 9, 7)).astype(dtype)
        x[:, :, :3] = 0.0
        x[:, :, 3:5] = -0.0
        w = rng.normal(size=(6, 1, 1, 1)).astype(dtype)
        w[:3] = -np.abs(w[:3])
        b = rng.normal(size=6).astype(dtype)
        got = conv2d(Tensor(x), Conv2dParams(Tensor(w), Tensor(b))).data
        want = np.matmul(w.reshape(6, 1), x.reshape(3, 1, 63)) + b[:, None]
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want.reshape(3, 6, 9, 7))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want.reshape(3, 6, 9, 7)))

    def test_one_graph_node(self):
        x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32), requires_grad=True)
        p = init_conv2d(2, 4, 1, Rng(0), np.float32)
        out = conv2d(x, p)
        assert out._parents == (x.node, p.weight.node, p.bias.node)


class TestSeparableConv2d:
    def test_delta_depthwise_identity_pointwise(self):
        c = 3
        dw = np.zeros((c, 1, 3, 3))
        dw[:, 0, 1, 1] = 1.0
        pw = np.eye(c).reshape(c, c, 1, 1)
        p = SeparableConv2dParams(Tensor(dw), Tensor(np.zeros(c)),
                                  Tensor(pw), Tensor(np.zeros(c)))
        x = Tensor(np.random.default_rng(0).normal(size=(2, c, 4, 4)))
        np.testing.assert_allclose(separable_conv2d(x, p).data, x.data, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_factored_standard_conv(self, seed):
        rng = np.random.default_rng(seed)
        ci = int(rng.integers(1, 9))
        co = int(rng.integers(1, 9))
        x = rng.normal(size=(1, ci, 6, 6))
        dw = rng.normal(size=(ci, 1, 3, 3))
        db = rng.normal(size=ci)
        pw = rng.normal(size=(co, ci, 1, 1))
        pb = rng.normal(size=co)
        p = SeparableConv2dParams(Tensor(dw), Tensor(db), Tensor(pw), Tensor(pb))
        got = separable_conv2d(Tensor(x), p).data
        # equivalent standard conv: W[o,i] = pw[o,i] * dw[i], bias folded
        w_eq = pw[:, :, 0, 0][:, :, None, None] * dw[:, 0][None]
        b_eq = pb + pw[:, :, 0, 0] @ db
        expected = _conv_oracle(x, w_eq, b_eq, 1)
        assert np.abs(got - expected).max() <= 1e-10

    @staticmethod
    def _params(c_in, c_out, k, dtype, seed):
        rng = np.random.default_rng(seed)
        return SeparableConv2dParams(*(
            Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for shape in ((c_in, 1, k, k), (c_in,), (c_out, c_in, 1, 1), (c_out,))))

    # (2, 5, 130, 130) runs the depthwise kernel on blocks of 3 and 2
    # channels, (3, 4, 16, 16) on runs of images; c_in = 1 takes the
    # broadcast pointwise product
    @pytest.mark.parametrize("shape,c_out,k", [((2, 5, 130, 130), 3, 3), ((3, 4, 16, 16), 6, 5),
                                               ((2, 1, 12, 10), 4, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_gradients_equal_two_node_composition(self, shape, c_out, k, dtype, x_grad):
        # the node recomputes the depthwise output that the composition kept,
        # with the same kernel, so every output and gradient keeps its bits
        rng = np.random.default_rng(16)
        x_np = rng.normal(size=shape).astype(dtype)
        g = rng.normal(size=(shape[0], c_out) + shape[2:]).astype(dtype)
        runs = []
        for conv in (separable_conv2d, reference_ops.separable_conv2d):
            x = Tensor(x_np, requires_grad=x_grad)
            p = self._params(shape[1], c_out, k, dtype, seed=17)
            out = conv(x, p)
            backward(project(out, g))
            runs.append([out.data, x.grad, p.depthwise_weight.grad, p.depthwise_bias.grad,
                         p.pointwise_weight.grad, p.pointwise_bias.grad])
        assert (runs[0][1] is None) == (not x_grad)
        assert runs[0][0].dtype == dtype
        _assert_bits_equal(*runs)

    def test_one_graph_node(self):
        x = Tensor(np.ones((1, 2, 6, 6), dtype=np.float32), requires_grad=True)
        p = init_separable_conv2d(2, 4, 3, Rng(0), np.float32)
        out = separable_conv2d(x, p)
        assert out._parents == (x.node, p.depthwise_weight.node, p.depthwise_bias.node,
                                p.pointwise_weight.node, p.pointwise_bias.node)

    def test_train_forward_keeps_the_input_not_the_depthwise_output(self):
        # after a train forward the live bytes are the output plus x, which
        # the caller allocated before tracing; the two-node composition also
        # held the depthwise output, as large as x
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(4, 8, 64, 64)).astype(np.float32), requires_grad=True)
        p = init_separable_conv2d(8, 6, 3, Rng(0), np.float32)
        held = {}
        for conv in (separable_conv2d, reference_ops.separable_conv2d):
            tracemalloc.start()
            try:
                out = conv(x, p)
                held[conv] = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
            del out
        slack = 64 << 10  # the node, its closure and small arrays
        assert held[separable_conv2d] <= slack
        assert held[reference_ops.separable_conv2d] >= x.data.nbytes

    def test_param_count_closed_form(self):
        p = init_separable_conv2d(64, 128, 3, Rng(0), np.float32)
        stored = sum(
            t.size
            for t in (p.depthwise_weight, p.depthwise_bias,
                      p.pointwise_weight, p.pointwise_bias)
        )
        # depthwise 64 * (9 + 1) plus pointwise 128 * (64 + 1)
        assert stored == 8960
        q = init_conv2d(64, 128, 3, Rng(0), np.float32)
        # standard 128 * (64 * 9 + 1)
        assert q.weight.size + q.bias.size == 73856


class TestBatchNorm:
    def test_infer_identity_statistics(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_EPS", 1e-12)
        p = init_batch_norm(3, np.float32)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        np.testing.assert_allclose(batch_norm(x, p, "infer").data, x.data, atol=1e-5)

    def test_train_normalizes_per_channel(self):
        p = init_batch_norm(3, np.float32)
        x = Tensor(np.random.default_rng(1).normal(2.0, 3.0, size=(4, 3, 8, 8)))
        out = batch_norm(x, p, "train").data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-5
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() <= 1e-4

    def test_train_updates_running_stats(self, monkeypatch):
        monkeypatch.setattr(layers, "BN_MOMENTUM", 0.5)
        p = init_batch_norm(2, np.float32)
        x = Tensor(np.full((2, 2, 2, 2), 4.0) + np.random.default_rng(0).normal(size=(2, 2, 2, 2)))
        batch_norm(x, p, "train")
        assert np.all(p.running_mean > 0.5)

    def test_degenerate_batch_rejected(self):
        p = init_batch_norm(2, np.float32)
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.zeros((1, 2, 1, 1))), p, "train")


class TestMaxPool:
    def test_basic(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(max_pool_2x2(x).data, [[[[4.0]]]])

    def test_constant_image(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.5))
        np.testing.assert_array_equal(max_pool_2x2(x).data, np.full((1, 2, 2, 2), 3.5))

    def test_backward_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2),
                   requires_grad=True)
        backward(tensor_sum(max_pool_2x2(x)))
        np.testing.assert_array_equal(x.grad.reshape(2, 2), [[0.0, 0.0], [0.0, 1.0]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            max_pool_2x2(Tensor(np.zeros((1, 1, 3, 4))))


def _max_pool_window_oracle(x, g):
    """The seed's max pool: copy the 2x2 windows, take the argmax, gather
    the output and scatter ``g`` back to the argmax."""
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    win = x.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    arg = win.argmax(axis=-1)
    out = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
    gwin = np.zeros((n, c, ho, wo, 4), dtype=g.dtype)
    np.put_along_axis(gwin, arg[..., None], g[..., None], axis=-1)
    gx = gwin.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, gx


def _max_pool_case(x):
    """Forward and input gradient of ``max_pool_2x2`` next to the oracle's."""
    g = np.random.default_rng(1).normal(size=(x.shape[0], x.shape[1], x.shape[2] // 2,
                                              x.shape[3] // 2)).astype(x.dtype)
    xt = Tensor(x, requires_grad=True)
    out = max_pool_2x2(xt)
    backward(project(out, g))
    return (out.data, xt.grad), _max_pool_window_oracle(x, g)


class TestMaxPoolStridedViews:
    """The strided-view forward and the backward's window argmax equal the
    seed's window/argmax max pool bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 6, 8), (1, 5, 4, 4), (3, 7, 16, 2), (4, 1, 2, 2)])
    def test_forward_and_gradient_equal_oracle(self, dtype, shape):
        x = np.random.default_rng(0).normal(size=shape).astype(dtype)
        (out, gx), (want, want_gx) = _max_pool_case(x)
        assert out.dtype == gx.dtype == dtype
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gx, want_gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ties_route_to_the_top_left(self, dtype):
        x = np.full((2, 3, 4, 6), 1.5, dtype=dtype)
        x[0, 1, 2:, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        (out, gx), (want, want_gx) = _max_pool_case(x)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gx, want_gx)
        assert np.all(gx[:, :, 1::2, :] == 0) and np.all(gx[:, :, :, 1::2] == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_in_a_window(self, dtype):
        x = np.random.default_rng(2).normal(size=(1, 3, 4, 4)).astype(dtype)
        x[0, 0, 1, 1] = np.nan
        x[0, 2, 2, 3] = np.nan
        x[0, 2, 3, 2] = np.nan  # two NaNs in one window: the first one wins
        (out, gx), (want, want_gx) = _max_pool_case(x)
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 2, 1, 1])
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gx, want_gx)

    def test_transposed_view_input(self):
        x = np.random.default_rng(3).normal(size=(2, 5, 10, 6)).astype(np.float32)
        x = x.transpose(0, 1, 3, 2)  # a strided view, not C-contiguous
        assert not x.flags.c_contiguous
        (out, gx), (want, want_gx) = _max_pool_case(x)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gx, want_gx)


def _batch_norm_case(dtype, c=7):
    rng = np.random.default_rng(4)
    p = init_batch_norm(c, dtype=dtype)
    p.gamma = Tensor(rng.normal(1.0, 0.3, c).astype(dtype), requires_grad=True)
    p.beta = Tensor(rng.normal(0.0, 0.3, c).astype(dtype), requires_grad=True)
    p.running_mean = rng.normal(0.5, 1.0, c).astype(dtype)
    p.running_var = rng.uniform(0.2, 3.0, c).astype(dtype)
    x = rng.normal(0.0, 2.0, size=(4, c, 16, 16)).astype(dtype)
    return x, p


class TestBatchNormInferFold:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_within_rounding_of_the_four_pass_formula(self, dtype):
        x, p = _batch_norm_case(dtype)
        out = batch_norm(Tensor(x), p, "infer").data
        assert out.dtype == dtype
        mean, var = (a.reshape(1, -1, 1, 1) for a in (p.running_mean, p.running_var))
        gamma, beta = (a.data.reshape(1, -1, 1, 1) for a in (p.gamma, p.beta))
        std = np.sqrt(var + dtype(BN_EPS))
        want = (x - mean) / std * gamma + beta
        # each formula takes at most m = 7 rounded steps from the inputs, each
        # off by at most eps relative to the terms it combines, so the two
        # differ by at most 2 * m * eps * sum|term|
        terms = (np.abs(x) + np.abs(mean)) * np.abs(gamma) / std + np.abs(beta)
        bound = 2 * 7 * np.finfo(dtype).eps * terms
        assert np.all(np.abs(out - want) <= bound)

    def test_backward_raises_and_no_grad_records_no_node(self):
        x, p = _batch_norm_case(np.float64, c=3)
        xt = Tensor(x, requires_grad=True)
        with pytest.raises(RuntimeError, match="train mode"):
            backward(tensor_sum(batch_norm(xt, p, "infer")))
        assert xt.grad is None and p.gamma.grad is None and p.beta.grad is None
        with no_grad():
            assert batch_norm(xt, p, "infer").node is None

    def test_running_statistics_untouched(self):
        x, p = _batch_norm_case(np.float32)
        mean, var = p.running_mean.copy(), p.running_var.copy()
        batch_norm(Tensor(x), p, "infer")
        np.testing.assert_array_equal(p.running_mean, mean)
        np.testing.assert_array_equal(p.running_var, var)


# the seed's sub, div and power, which the seed's train-mode batch norm
# composed with the Tensor operators into 14 primitive nodes


def _sub(a, b):
    def bwd(g):
        _accum(a.node, unbroadcast(g, a.shape))
        _accum(b.node, unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), bwd)


def _div(a, b):
    def bwd(g):
        _accum(a.node, unbroadcast(g / b.data, a.shape))
        _accum(b.node, unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), bwd)


def _power(x, p):
    def bwd(g):
        _accum(x.node, g * p * x.data ** (p - 1))

    return _make(x.data**p, (x,), bwd)


# the reshape and mean that autograd provided until no layer composed them
# any more; the batch-norm and loss oracles still do
# (see reference_ops for add, mul and sum)


def _reshape(x, shape):
    old_shape = x.shape

    def bwd(g):
        _accum(x.node, g.reshape(old_shape))

    return _make(x.data.reshape(shape), (x,), bwd)


def _mean(x, axis=None, keepdims=False):
    count = x.size if axis is None else int(np.prod([x.shape[i] for i in axis]))
    return mul(tensor_sum(x, axis, keepdims), 1.0 / count)


def _batch_norm_primitive_oracle(x, p, mode):
    """The seed's train-mode batch norm, one primitive node per step."""
    assert mode == "train"
    n, c, h, w = x.shape
    gamma = _reshape(p.gamma, (1, c, 1, 1))
    beta = _reshape(p.beta, (1, c, 1, 1))
    mu = _mean(x, (0, 2, 3), keepdims=True)
    var = _mean(_power(_sub(x, mu), 2), (0, 2, 3), keepdims=True)
    m = BN_MOMENTUM
    p.running_mean = ((1 - m) * p.running_mean + m * mu.data.reshape(c)).astype(
        p.running_mean.dtype
    )
    p.running_var = ((1 - m) * p.running_var + m * var.data.reshape(c)).astype(
        p.running_var.dtype
    )
    xhat = _div(_sub(x, mu), _power(add(var, BN_EPS), 0.5))
    return add(mul(xhat, gamma), beta)


def _batch_norm_train_run(norm, x, p, g, x_grad=True):
    """Output, x/gamma/beta gradients and running statistics of one train
    call of ``norm`` with upstream gradient ``g``."""
    xt = Tensor(x, requires_grad=x_grad)
    out = norm(xt, p, "train")
    backward(project(out, g))
    return out.data, xt.grad, p.gamma.grad, p.beta.grad, p.running_mean, p.running_var


def _assert_bits_equal(got, want):
    """``array_equal`` that also tells -0.0 from +0.0."""
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


# The one-node backward is the textbook formula and the primitive graph runs
# the chain rule, so they round differently. The largest deviation seen is
# 2.1 units of eps * max|ref| in one layer's gradient and 5.7 over a model
# step's gradients.
BN_GRAD_UNITS = 16


def _assert_grads_close(got, want):
    """Every array of ``got`` within ``BN_GRAD_UNITS * eps * max|ref|`` of
    ``want``, eps of the dtype, with the max over all of ``want``: a model's
    one-channel input batch norm has a gamma gradient of 2.5e-5, a sum over
    2,048 terms that cancel, whose own magnitude says nothing of its rounding."""
    assert [a is None for a in got] == [b is None for b in want]
    pairs = [(a, b) for a, b in zip(got, want) if b is not None]
    scale = max((np.finfo(b.dtype).eps * np.abs(b).max() for _, b in pairs), default=0)
    bound = BN_GRAD_UNITS * scale
    for a, b in pairs:
        assert a.dtype == b.dtype
        assert np.abs(a - b).max() <= bound


def _assert_batch_norm_runs_agree(got, want):
    """Output and running statistics bit for bit, each gradient within
    ``BN_GRAD_UNITS`` of its own max."""
    _assert_bits_equal(got[:1] + got[4:], want[:1] + want[4:])
    for a, b in zip(got[1:4], want[1:4]):
        _assert_grads_close([a], [b])


class TestBatchNormTrainOneNode:
    """Train-mode batch norm is one node whose output and running statistics
    equal the seed's primitive graph bit for bit, and whose gradients agree
    with it within ``BN_GRAD_UNITS``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 7, 16, 16), (1, 5, 8, 6), (3, 2, 1, 9), (2, 3, 5, 1)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_equals_primitive_graph(self, dtype, shape, x_grad):
        rng = np.random.default_rng(8)
        x = rng.normal(1.5, 2.0, size=shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        runs = []
        for norm in (batch_norm, _batch_norm_primitive_oracle):
            _, p = _batch_norm_case(dtype, c=shape[1])
            runs.append(_batch_norm_train_run(norm, x, p, g, x_grad))
        _assert_batch_norm_runs_agree(*runs)
        assert (runs[0][1] is None) == (not x_grad)

    def test_transposed_view_input(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4, 10, 6)).astype(np.float32).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        g = rng.normal(size=x.shape).astype(np.float32)
        runs = []
        for norm in (batch_norm, _batch_norm_primitive_oracle):
            _, p = _batch_norm_case(np.float32, c=4)
            runs.append(_batch_norm_train_run(norm, x, p, g))
        _assert_batch_norm_runs_agree(*runs)

    def test_one_graph_node(self, made_nodes):
        x, p = _batch_norm_case(np.float32, c=3)
        xt = Tensor(x, requires_grad=True)
        out = batch_norm(xt, p, "train")
        assert [t for t, _ in made_nodes] == [out]
        assert out._parents == (xt.node, p.gamma.node, p.beta.node)

    def test_model_train_step_equals_primitive_graph(self, monkeypatch):
        from sepseg import model as model_module
        from sepseg.metrics import weighted_cross_entropy

        x = Tensor(np.random.default_rng(4).normal(size=(2, 1, 32, 32)).astype(np.float32))
        labels = np.random.default_rng(1).integers(0, 2, (2, 32, 32))

        def step():
            model = model_module.build_model(model_module.ModelSpec(base_depth=8), Rng(0, 0))
            probs = model_module.forward(model, x, "train", rng=Rng(0, 1))
            loss = weighted_cross_entropy(probs, labels, np.array([1.0, 3.0]))
            backward(loss)
            grads = [t.grad for t in model.named_parameters().values()]
            return [loss.data] + list(model.named_statistics().values()), grads

        fused, fused_grads = step()
        monkeypatch.setattr(model_module, "batch_norm", _batch_norm_primitive_oracle)
        primitive, primitive_grads = step()
        _assert_bits_equal(fused, primitive)
        _assert_grads_close(fused_grads, primitive_grads)


def _log_clamped(x, floor=1e-12):
    clamped = np.maximum(x.data, floor)

    def bwd(g):
        _accum(x.node, np.where(x.data >= floor, g / clamped, 0.0))

    return _make(np.log(clamped), (x,), bwd)


def _weighted_ce_chain_oracle(probs, labels, weights):
    """The loss as the seven primitive nodes it was built from: 4 mul,
    2 sum and a clamped log."""
    n, c, h, w = probs.shape
    onehot = np.zeros((n, c, h, w), dtype=probs.dtype)
    np.put_along_axis(onehot, labels[:, None], 1.0, axis=1)
    pixel_w = weights.astype(probs.dtype)[labels][:, None]
    picked = tensor_sum(mul(probs, Tensor(onehot)), 1, True)
    return _mean(mul(mul(_log_clamped(picked), -1.0), Tensor(pixel_w)))


class TestWeightedCrossEntropyOneNode:
    """The loss is one node whose value, dtype and ``probs`` gradient equal
    the seven-node chain's, up to the sign of the gradient's zeros."""

    WEIGHTS = [0.4, 1.0, 2.5]

    @staticmethod
    def _probs_labels(dtype, scale):
        rng = np.random.default_rng(int(scale * 10))
        z = rng.normal(size=(2, 3, 6, 5)) * scale
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True)).astype(dtype), rng.integers(0, 3, (2, 6, 5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
    @pytest.mark.parametrize("upstream", [1.0, 0.3])
    def test_equals_chain(self, dtype, scale, upstream):
        from sepseg.metrics import weighted_cross_entropy

        probs_np, labels = self._probs_labels(dtype, scale)
        picked = np.take_along_axis(probs_np, labels[:, None], axis=1)
        assert (picked < 1e-12).any() == (scale == 30.0)  # saturated picks hit the floor
        runs = []
        for loss_fn in (weighted_cross_entropy, _weighted_ce_chain_oracle):
            probs = Tensor(probs_np, requires_grad=True)
            loss = loss_fn(probs, labels, np.array(self.WEIGHTS))
            backward(loss if upstream == 1.0 else mul(loss, Tensor(np.asarray(upstream, dtype))))
            runs.append((loss.data, probs.grad))
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_one_graph_node(self, made_nodes):
        from sepseg.metrics import weighted_cross_entropy

        probs_np, labels = self._probs_labels(np.float32, 3.0)
        probs = Tensor(probs_np, requires_grad=True)
        loss = weighted_cross_entropy(probs, labels, np.array(self.WEIGHTS))
        assert [t for t, _ in made_nodes] == [loss]
        assert loss._parents == (probs.node,)


class TestBilinearUpsample:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.7))
        np.testing.assert_allclose(bilinear_upsample_2x(x).data,
                                   np.full((1, 2, 6, 6), 0.7), rtol=1e-6)

    def test_half_pixel_row(self):
        x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
        out = bilinear_upsample_2x(x).data
        np.testing.assert_allclose(out[0, 0, 0], [0.0, 0.5, 1.5, 2.0], atol=1e-7)
        np.testing.assert_allclose(out[0, 0, 1], [0.0, 0.5, 1.5, 2.0], atol=1e-7)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        y = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        lhs = bilinear_upsample_2x(Tensor(2.0 * x - 3.0 * y)).data
        rhs = 2.0 * bilinear_upsample_2x(Tensor(x)).data - 3.0 * bilinear_upsample_2x(Tensor(y)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_preserves_value_range(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 5, 5))
        out = bilinear_upsample_2x(Tensor(x)).data
        assert out.min() >= x.min() - 1e-12 and out.max() <= x.max() + 1e-12


def _resample_oracle_coeffs(src, dtype):
    """Source taps and right-tap weights of a 2x resize, the weights in ``dtype``."""
    i0, i1, t = _linear_resample_coeffs(src, 2 * src)
    return i0, i1, t.astype(dtype)


def _upsample_oracle(data, axis):
    """Gather formulation: take both taps, weigh them (1 - t) and t."""
    src = data.shape[axis]
    i0, i1, t = _resample_oracle_coeffs(src, data.dtype)
    shape = [1] * data.ndim
    shape[axis] = 2 * src
    t = t.reshape(shape)
    return np.take(data, i0, axis=axis) * (1 - t) + np.take(data, i1, axis=axis) * t


def _upsample_adjoint_oracle(g, axis, src):
    """Scatter formulation: ``np.add.at`` the (1 - t) weights, then the t weights."""
    i0, i1, t = _resample_oracle_coeffs(src, g.dtype)
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


class TestBilinearClosedForm:
    """The closed-form kernels equal the gather/scatter formulation bit for
    bit, with the weights in the data's dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 16])
    @pytest.mark.parametrize("axis", [2, 3])
    def test_forward_and_adjoint_equal_oracle(self, dtype, s, axis):
        rng = np.random.default_rng(s)
        shape = [2, 3, 7, 5]  # h != w on the axis that is not resized
        shape[axis] = s
        x = rng.normal(size=shape).astype(dtype)
        out = _upsample2x_axis(x, axis)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, _upsample_oracle(x, axis))
        g = rng.normal(size=out.shape).astype(dtype)
        gx = _upsample2x_axis_adjoint(g, axis)
        assert gx.dtype == dtype
        np.testing.assert_array_equal(gx, _upsample_adjoint_oracle(g, axis, s))

    @pytest.mark.parametrize("s", [1, 2, 5])
    @pytest.mark.parametrize("axis", [2, 3])
    def test_non_finite_values_propagate_as_in_oracle(self, s, axis):
        shape = [1, 2, 4, 4]
        shape[axis] = s
        x = np.ones(shape, dtype=np.float32)
        x[0, 0], x[0, 1].flat[-1] = np.inf, np.nan
        shape[axis] *= 2
        g = np.ones(shape, dtype=np.float32)
        g[0, 0].flat[0], g[0, 1].flat[-1] = -np.inf, np.inf
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(_upsample2x_axis(x, axis), _upsample_oracle(x, axis))
            np.testing.assert_array_equal(_upsample2x_axis_adjoint(g, axis),
                                          _upsample_adjoint_oracle(g, axis, s))

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    @pytest.mark.parametrize("axis", [2, 3])
    def test_non_finite_lines_stay_in_their_plane(self, s, axis):
        # the flat passes run across plane boundaries; inf and NaN on the
        # lines either side of one must reach only their own plane's outputs
        rng = np.random.default_rng(s)

        def case(shape):
            a = rng.normal(size=shape).astype(np.float32)
            lines = np.moveaxis(a, axis, 2)  # (n, c, line, ...) view of a
            lines[0, 1, -1], lines[0, 2, 0] = np.inf, np.nan  # inside one image
            lines[0, 2, -1], lines[1, 0, 0] = np.nan, -np.inf  # across two images
            return a

        shape = [2, 3, 4, 5]
        shape[axis] = s
        x = case(shape)
        shape[axis] = 2 * s
        g = case(shape)
        with np.errstate(invalid="ignore"):
            out = _upsample2x_axis(x, axis)
            np.testing.assert_array_equal(out, _upsample_oracle(x, axis))
            np.testing.assert_array_equal(_upsample2x_axis_adjoint(g, axis),
                                          _upsample_adjoint_oracle(g, axis, s))
        assert np.isfinite(out[0, 0]).all() and np.isfinite(out[1, 1:]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_keeps_dtype(self, dtype):
        x = Tensor(np.ones((1, 2, 3, 5), dtype=dtype), requires_grad=True)
        out = bilinear_upsample_2x(x)
        assert out.dtype == dtype
        backward(project(out, np.ones(out.shape, dtype=dtype)))
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (5, 4), (16, 9)])
    def test_adjoint_identity(self, hw):
        """<up(x), g> == <x, up^T(g)>."""
        rng = np.random.default_rng(sum(hw))
        x = rng.normal(size=(2, 3) + hw)
        g = rng.normal(size=(2, 3, 2 * hw[0], 2 * hw[1]))
        up = _upsample2x_axis(_upsample2x_axis(x, 2), 3)
        upt = _upsample2x_axis_adjoint(_upsample2x_axis_adjoint(g, 3), 2)
        np.testing.assert_allclose(np.vdot(up, g), np.vdot(x, upt), rtol=1e-12)


class TestPixelShuffle:
    def test_r2_channel_layout(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = pixel_shuffle(x).data
        np.testing.assert_array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_inverse_shuffle_roundtrip(self):
        x = np.random.default_rng(1).normal(size=(2, 8, 3, 3)).astype(np.float32)
        out = pixel_shuffle(Tensor(x)).data
        n, co, ho, wo = out.shape
        back = out.reshape(n, co, 3, 2, 3, 2).transpose(0, 1, 3, 5, 2, 4).reshape(x.shape)
        np.testing.assert_array_equal(back, x)

    def test_preserves_multiset(self):
        x = np.random.default_rng(2).normal(size=(1, 4, 2, 2)).astype(np.float32)
        out = pixel_shuffle(Tensor(x)).data
        assert out.size == x.size
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ShapeError):
            pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))))


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        np.testing.assert_array_equal(dropout(x, 0.0, "train", Rng(0)).data, x.data)

    def test_train_mode_with_rng_only(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 4)))
        with pytest.raises(ValueError):
            dropout(x, 0.5, "infer", Rng(0))
        with pytest.raises(ValueError):
            dropout(x, 0.5, "train", None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_mul_by_mask(self, dtype):
        rng = np.random.default_rng(2)
        x_np = rng.normal(size=(2, 3, 5, 4)).astype(dtype)
        g = rng.normal(size=x_np.shape).astype(dtype)
        rate = 0.3
        runs = []
        for fused in (True, False):
            x = Tensor(x_np, requires_grad=True)
            if fused:
                out = dropout(x, rate, "train", Rng(7))
            else:  # the broadcasting mul it replaced
                keep = (Rng(7).uniform(size=x.shape) >= rate).astype(x.dtype)
                out = mul(x, Tensor(keep / (1 - rate)))
            backward(project(out, g))
            runs.append((out.data, x.grad))
        _assert_bits_equal(*runs)
        assert (runs[0][0] == 0).any()

    def test_one_graph_node(self, made_nodes):
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32), requires_grad=True)
        out = dropout(x, 0.3, "train", Rng(0))
        assert [t for t, _ in made_nodes] == [out]
        assert out._parents == (x.node,)

    def test_empirical_drop_fraction(self):
        x = Tensor(np.ones(1_000_000))
        out = dropout(x, 0.05, "train", Rng(123)).data
        frac = np.count_nonzero(out == 0) / out.size
        assert 0.048 <= frac <= 0.052
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.95, rtol=1e-6)

    def test_bad_rate_rejected(self):
        from sepseg.model import ModelSpec

        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\), got 1.0"):
            ModelSpec(dropout_rate=1.0)


class TestActivations:
    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_equal_logits(self):
        x = Tensor(np.zeros((1, 2, 2, 2)))
        np.testing.assert_allclose(softmax_channels(x).data, 0.5, rtol=1e-7)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 2, 2)).astype(np.float32)
        a = softmax_channels(Tensor(x)).data
        b = softmax_channels(Tensor(x + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_softmax_channel_sums(self):
        x = np.random.default_rng(1).normal(size=(2, 4, 3, 3)).astype(np.float32)
        s = softmax_channels(Tensor(x)).data.sum(axis=1)
        np.testing.assert_allclose(s, 1.0, atol=1e-6)
