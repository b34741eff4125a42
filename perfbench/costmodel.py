"""Analytic work counts for the sepseg ops and for a whole forward pass.

Mult-adds follow the MobileNets cost model (Howard et al., arXiv
1704.04861, section 3.1): a standard k x k convolution costs
k*k*C_in*C_out*H_out*W_out per image, a depthwise one k*k*C*H*W, and a
depthwise separable one the sum of its depthwise and 1x1 parts. Bilinear
2x upsampling counts one mult-add per output element of each of its two
axis passes, and batch norm one per element (the affine normalisation).
Pooling, pixel shuffle, dropout and softmax count none.

Bytes are computed, not measured: the float32 elements of every input
and parameter read once, plus every output written once. Cache misses
and temporaries such as im2col matrices are not counted.

Every count here is an exact integer that depends only on shapes, so it
repeats exactly from run to run.
"""

from __future__ import annotations

F32 = 4


def _prod(shape):
    out = 1
    for s in shape:
        out *= int(s)
    return out


def conv(x_shape, w_shape, stride=1, pad=0):
    """Standard (or 1x1) convolution; w_shape is (C_out, C_in, k, k)."""
    n, c_in, h, w = x_shape
    c_out, _, k, _ = w_shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = n * c_out * ho * wo
    return out * c_in * k * k, F32 * (_prod(x_shape) + _prod(w_shape) + c_out + out)


def depthwise(x_shape, k):
    n, c, h, w = x_shape
    elems = n * c * h * w
    return elems * k * k, F32 * (2 * elems + c * k * k + c)


def separable(x_shape, k, c_out):
    dm, db = depthwise(x_shape, k)
    pm, pb = conv(x_shape, (c_out, x_shape[1], 1, 1))
    return dm + pm, db + pb


def batch_norm(x_shape):
    elems = _prod(x_shape)
    return elems, F32 * (2 * elems + 2 * x_shape[1])


def bilinear_upsample_2x(x_shape):
    n, c, h, w = x_shape
    # pass over rows makes (2h, w), pass over columns makes (2h, 2w)
    return n * c * (2 * h * w + 4 * h * w), F32 * 5 * n * c * h * w


def data_movement(in_elems, out_elems):
    return 0, F32 * (in_elems + out_elems)


def op_counts(op, args, kwargs):
    """(mult-adds, bytes) of one traced call of layers.<op>."""
    x = args[0].shape
    elems = _prod(x)
    if op in ("conv2d_1x1", "conv2d_3x3"):
        p = args[1]
        return conv(x, p.weight.shape, p.stride, p.pad)
    if op == "depthwise":
        return depthwise(x, args[1].shape[2])
    if op == "separable_conv2d":
        p = args[1]
        return separable(x, p.depthwise_weight.shape[2], p.pointwise_weight.shape[0])
    if op == "batch_norm":
        return batch_norm(x)
    if op == "bilinear_upsample_2x":
        return bilinear_upsample_2x(x)
    if op == "max_pool_2x2":
        return data_movement(elems, elems // 4)
    if op == "dropout":
        mode = args[2] if len(args) > 2 else kwargs.get("mode")
        return data_movement(2 * elems if mode == "train" else elems, elems)
    # pixel_shuffle and softmax_channels keep the element count
    return data_movement(elems, elems)


def model_counts(spec, size):
    """(mult-adds, bytes) of one forward pass over a single size x size
    slice, following the block order of ``sepseg.model.forward``."""
    blocks = dict(spec.block_specs())
    total = [0, 0]

    def add(counts):
        total[0] += counts[0]
        total[1] += counts[1]

    def block(stage, s):
        b = blocks[stage]
        x = (1, b.in_channels, s, s)
        add(batch_norm(x))
        for c_in in (b.in_channels, b.out_channels):
            xin = (1, c_in, s, s)
            if b.uses_separable:
                add(separable(xin, b.kernel, b.out_channels))
            else:
                add(conv(xin, (b.out_channels, c_in, b.kernel, b.kernel), 1, (b.kernel - 1) // 2))
        if b.in_channels != b.out_channels:
            add(conv(x, (b.out_channels, b.in_channels, 1, 1)))
        return b.out_channels

    s = size
    skips = []
    for stage in ("enc1", "enc2", "enc3", "enc4"):
        c = block(stage, s)
        skips.append(c)
        add(data_movement(c * s * s, c * s * s // 4))
        s //= 2
    c = block("bottleneck", s)
    for i, stage in enumerate(("dec1", "dec2", "dec3", "dec4")):
        if spec.upsample_plan[i] == "bilinear":
            add(bilinear_upsample_2x((1, c, s, s)))
        else:
            add(data_movement(c * s * s, c * s * s))
        s *= 2
        c = block(stage, s)
    add(conv((1, c, s, s), (spec.num_classes, c, 1, 1)))
    add(data_movement(spec.num_classes * s * s, spec.num_classes * s * s))
    return total[0], total[1]
