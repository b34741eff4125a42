"""Encoder-decoder segmentation model assembly.

Builds the lightweight separable-convolution network (four encoder
blocks, a 1024-channel bottleneck, four decoder blocks with bilinear /
pixel-shuffle upsampling and long-range skips) and a standard-convolution
UNet baseline with the same channel schedule, plus the parameter auditor.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .autograd import Rng, ShapeError, Tensor, add_relu, concat, no_grad, relu
from .layers import (
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
from .metrics import probs_to_mask

VARIANTS = ("proposed", "baseline-unet")
DEPTH_CAP = 1024  # widest block: the bottleneck's 16 * base_depth channels
IN_CHANNELS = 1  # one windowed CT slice per input


@dataclass
class ModelSpec:
    variant: str = "proposed"
    base_depth: int = 64
    num_classes: int = 2
    kernel: int = 3
    dropout_rate: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not 1 <= self.base_depth * 16 <= DEPTH_CAP:
            raise ValueError(f"base_depth * 16 must be in [16, {DEPTH_CAP}], "
                             f"got {self.base_depth}")
        if self.variant == "proposed" and (2 * self.base_depth) % 4:
            raise ValueError("proposed variant needs 2*base_depth divisible by 4 for pixel shuffle")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def lesion_class(self):
        """The class that is scored: the last one, as in LiTS's 0 background,
        1 liver, 2 lesion, and in a 0/1 lesion mask."""
        return self.num_classes - 1

    @property
    def upsample_plan(self):
        if self.variant == "proposed":
            return ("bilinear", "bilinear", "bilinear", "subpixel")
        return ("bilinear", "bilinear", "bilinear", "bilinear")

    def block_specs(self):
        """Ordered (stage name, block spec) pairs for the nine blocks."""
        b = self.base_depth
        sep = self.variant == "proposed"
        k = self.kernel
        stages = [
            ("enc1", IN_CHANNELS, b),
            ("enc2", b, 2 * b),
            ("enc3", 2 * b, 4 * b),
            ("enc4", 4 * b, 8 * b),
            ("bottleneck", 8 * b, 16 * b),
            ("dec1", 16 * b + 8 * b, 8 * b),
            ("dec2", 8 * b + 4 * b, 4 * b),
            ("dec3", 4 * b + 2 * b, 2 * b),
        ]
        if self.variant == "proposed":
            # pixel shuffle turns 2b channels into 2b/4 at double resolution
            stages.append(("dec4", 2 * b // 4 + b, b))
        else:
            stages.append(("dec4", 2 * b + b, b))
        return [(name, ResNetBlockSpec(ci, co, k, sep)) for name, ci, co in stages]


@dataclass
class ResNetBlockSpec:
    in_channels: int
    out_channels: int
    kernel: int
    uses_separable: bool


@dataclass
class ResNetBlockParams:
    bn: BatchNormParams
    conv1: object  # Conv2dParams or SeparableConv2dParams
    conv2: object
    proj: Conv2dParams  # the 1x1 projection shortcut, None when the block keeps its width


class Model:
    """Built model: block parameters plus a deterministic name -> tensor map."""

    def __init__(self, spec: ModelSpec, blocks: "OrderedDict[str, ResNetBlockParams]", head: Conv2dParams):
        self.spec = spec
        self.blocks = blocks
        self.head = head

    def named_parameters(self) -> "OrderedDict[str, Tensor]":
        out = OrderedDict()
        for stage, blk in self.blocks.items():
            out[f"{stage}.res.bn.gamma"] = blk.bn.gamma
            out[f"{stage}.res.bn.beta"] = blk.bn.beta
            for cname, conv in (("conv1", blk.conv1), ("conv2", blk.conv2)):
                if isinstance(conv, SeparableConv2dParams):
                    out[f"{stage}.res.{cname}.dw_weight"] = conv.depthwise_weight
                    out[f"{stage}.res.{cname}.dw_bias"] = conv.depthwise_bias
                    out[f"{stage}.res.{cname}.pw_weight"] = conv.pointwise_weight
                    out[f"{stage}.res.{cname}.pw_bias"] = conv.pointwise_bias
                else:
                    out[f"{stage}.res.{cname}.weight"] = conv.weight
                    out[f"{stage}.res.{cname}.bias"] = conv.bias
            if blk.proj is not None:
                out[f"{stage}.res.proj.weight"] = blk.proj.weight
                out[f"{stage}.res.proj.bias"] = blk.proj.bias
        out["head.out.conv.weight"] = self.head.weight
        out["head.out.conv.bias"] = self.head.bias
        return out

    def named_statistics(self) -> "OrderedDict[str, np.ndarray]":
        """Batch-norm running statistics: state, not learned, so they stay out of the
        optimizer and the parameter count. Checkpoints store them after the parameters."""
        out = OrderedDict()
        for stage, blk in self.blocks.items():
            out[f"{stage}.res.bn.running_mean"] = blk.bn.running_mean
            out[f"{stage}.res.bn.running_var"] = blk.bn.running_var
        return out


def _init_block(spec: ResNetBlockSpec, rng: Rng, dtype) -> ResNetBlockParams:
    ci, co, k = spec.in_channels, spec.out_channels, spec.kernel
    if spec.uses_separable:
        conv1 = init_separable_conv2d(ci, co, k, rng, dtype)
        conv2 = init_separable_conv2d(co, co, k, rng, dtype)
    else:
        conv1 = init_conv2d(ci, co, k, rng, dtype=dtype)
        conv2 = init_conv2d(co, co, k, rng, dtype=dtype)
    proj = init_conv2d(ci, co, 1, rng, dtype=dtype) if ci != co else None
    return ResNetBlockParams(init_batch_norm(ci, dtype), conv1, conv2, proj)


def build_model(spec: ModelSpec, rng: Rng, dtype=np.float32) -> Model:
    blocks = OrderedDict()
    for stage, bspec in spec.block_specs():
        blocks[stage] = _init_block(bspec, rng, dtype)
    head = init_conv2d(spec.base_depth, spec.num_classes, 1, rng, dtype=dtype)
    return Model(spec, blocks, head)


def resnet_block_forward(params: ResNetBlockParams, x: Tensor, mode: str, rng: Rng,
                         dropout_rate: float) -> Tensor:
    """y = relu(conv2(relu(conv1(bn(x)))) + shortcut(bn(x))), as ``params``
    define it: the input width is the batch norm's, the convs are separable
    when ``conv1`` is, and ``proj`` is the 1x1 shortcut or ``None``. Dropout
    (train mode only) acts on the conv2 output before the residual add."""
    c_in = params.bn.gamma.shape[0]
    if x.shape[1] != c_in:
        raise ShapeError(f"block expects {c_in} input channels, got {x.shape[1]}")
    conv = separable_conv2d if isinstance(params.conv1, SeparableConv2dParams) else conv2d
    h = batch_norm(x, params.bn, mode)
    a = relu(conv(h, params.conv1))
    a = conv(a, params.conv2)
    if mode == "train" and dropout_rate > 0.0:
        a = dropout(a, dropout_rate, mode, rng)
    s = h if params.proj is None else conv2d(h, params.proj)
    return add_relu(a, s)


def forward(model: Model, x: Tensor, mode: str, rng: Rng = None):
    """Full forward pass to per-pixel class probabilities.

    Input must be (N, IN_CHANNELS, H, W) with H and W divisible by 16.
    Infer mode records no autograd graph; train mode records one for
    ``backward``.
    """
    spec = model.spec
    n, c, h, w = x.shape
    if c != IN_CHANNELS:
        raise ShapeError(f"model expects {IN_CHANNELS} input channels, got {c}")
    if h % 16 or w % 16:
        raise ShapeError(
            f"input spatial size {h}x{w} must be divisible by 16 "
            "(four 2x pooling stages)"
        )

    def run(stage, t):
        return resnet_block_forward(model.blocks[stage], t, mode, rng, spec.dropout_rate)

    # infer mode builds no graph: nothing is kept for a backward that never runs
    with no_grad() if mode == "infer" else contextlib.nullcontext():
        skips = []
        cur = x
        for stage in ("enc1", "enc2", "enc3", "enc4"):
            e = run(stage, cur)
            skips.append(e)
            cur = max_pool_2x2(e)
        cur = run("bottleneck", cur)

        plan = spec.upsample_plan
        for i, stage in enumerate(("dec1", "dec2", "dec3", "dec4")):
            if plan[i] == "bilinear":
                cur = bilinear_upsample_2x(cur)
            else:
                cur = pixel_shuffle(cur)
            cur = concat([cur, skips.pop()])
            cur = run(stage, cur)

        return softmax_channels(conv2d(cur, model.head))


def predict_masks(model: Model, images, lesion_class: int):
    """Infer-mode lesion masks, one (H, W) uint8 array per (1, H, W)
    image, one image per forward so that the peak memory is one slice's.

    A mask has the bits of any batch: each kernel computes an image's
    outputs from that image alone, by the same operations in any batch.
    """
    return [probs_to_mask(forward(model, Tensor(image[None]), mode="infer").data, lesion_class)[0]
            for image in images]


def count_parameters(model: Model):
    """Per-tensor table of (name, shape, count) plus the grand total."""
    rows = []
    total = 0
    for name, t in model.named_parameters().items():
        rows.append((name, tuple(t.shape), t.size))
        total += t.size
    return rows, total


def format_parameter_table(rows, total):
    name_w = max(len(r[0]) for r in rows)
    shape_w = max(len(str(r[1])) for r in rows)
    lines = [f"{'name':<{name_w}}  {'shape':<{shape_w}}  count"]
    for name, shape, count in rows:
        lines.append(f"{name:<{name_w}}  {str(shape):<{shape_w}}  {count}")
    lines.append(f"{'total':<{name_w}}  {'':<{shape_w}}  {total}")
    return "\n".join(lines)


def parameter_table_csv(rows, total):
    lines = ["name,shape,count"]
    for name, shape, count in rows:
        lines.append(f"{name},{'x'.join(map(str, shape))},{count}")
    lines.append(f"total,,{total}")
    return "\n".join(lines)
