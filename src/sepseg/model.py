"""Encoder-decoder segmentation model assembly.

Builds the lightweight separable-convolution network (four encoder
blocks, a 1024-channel bottleneck, four decoder blocks with bilinear /
pixel-shuffle upsampling and long-range skips) and a standard-convolution
UNet baseline with the same channel schedule, plus the parameter auditor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .autograd import Rng, ShapeError, Tensor, concat
from .layers import (
    BatchNormParams,
    Conv2dParams,
    DropoutParams,
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


@dataclass
class ModelSpec:
    variant: str = "proposed"
    base_depth: int = 64
    depth_cap: int = 1024
    num_classes: int = 2
    in_channels: int = 1
    kernel: int = 3
    dropout_rate: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not 1 <= self.base_depth * 16 <= self.depth_cap:
            raise ValueError(f"base_depth * 16 must be in [16, {self.depth_cap}], "
                             f"got {self.base_depth}")
        if self.variant == "proposed" and (2 * self.base_depth) % 4:
            raise ValueError("proposed variant needs 2*base_depth divisible by 4 for pixel shuffle")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and positive, got {self.kernel}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        DropoutParams(self.dropout_rate)  # rejects a rate outside [0, 1)

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
            ("enc1", self.in_channels, b),
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
    kernel: int = ModelSpec.kernel
    uses_separable: bool = True

    @property
    def shortcut(self):
        return "identity" if self.in_channels == self.out_channels else "projection-1x1"


@dataclass
class ResNetBlockParams:
    bn: BatchNormParams
    conv1: object  # Conv2dParams or SeparableConv2dParams
    conv2: object
    proj: Conv2dParams = None


class Model:
    """Built model: block parameters plus a deterministic name -> tensor map."""

    def __init__(self, spec: ModelSpec, blocks: "OrderedDict[str, ResNetBlockParams]", head: Conv2dParams):
        self.spec = spec
        self.block_specs = dict(spec.block_specs())
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
    proj = None
    if spec.shortcut == "projection-1x1":
        proj = init_conv2d(ci, co, 1, rng, dtype=dtype)
    return ResNetBlockParams(init_batch_norm(ci, dtype), conv1, conv2, proj)


def build_model(spec: ModelSpec, rng: Rng, dtype=np.float32) -> Model:
    blocks = OrderedDict()
    for stage, bspec in spec.block_specs():
        blocks[stage] = _init_block(bspec, rng, dtype)
    head = init_conv2d(spec.base_depth, spec.num_classes, 1, rng, dtype=dtype)
    return Model(spec, blocks, head)


def resnet_block_forward(
    spec: ResNetBlockSpec, params: ResNetBlockParams, x: Tensor, mode: str, rng: Rng = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """y = relu(conv2(relu(conv1(bn(x)))) + shortcut(bn(x))).

    Dropout (train mode only) acts on the conv2 output before the
    residual add.
    """
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"block expects {spec.in_channels} input channels, got {x.shape[1]}"
        )
    conv = separable_conv2d if spec.uses_separable else conv2d
    h = batch_norm(x, params.bn, mode)
    a = conv(h, params.conv1).relu()
    a = conv(a, params.conv2)
    if mode == "train" and dropout_rate > 0.0:
        a = dropout(a, DropoutParams(dropout_rate), mode, rng)
    s = h if params.proj is None else conv2d(h, params.proj)
    return (a + s).relu()


def forward(model: Model, x: Tensor, mode: str = "infer", rng: Rng = None,
            return_features: bool = False):
    """Full forward pass to per-pixel class probabilities.

    Input must be (N, in_channels, H, W) with H and W divisible by 16.
    """
    spec = model.spec
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ShapeError(f"model expects {spec.in_channels} input channels, got {c}")
    if h % 16 or w % 16:
        raise ShapeError(
            f"input spatial size {h}x{w} must be divisible by 16 "
            "(four 2x pooling stages)"
        )
    features = {}

    def run(stage, t):
        out = resnet_block_forward(
            model.block_specs[stage], model.blocks[stage], t, mode, rng, spec.dropout_rate
        )
        features[stage] = out
        return out

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
            cur = pixel_shuffle(cur, 2)
        cur = concat([cur, skips[3 - i]], axis=1)
        cur = run(stage, cur)

    logits = conv2d(cur, model.head)
    probs = softmax_channels(logits)
    if return_features:
        return probs, features
    return probs


def predict_masks(model: Model, images, batch: int, lesion_class: int):
    """Infer-mode lesion masks, one (H, W) uint8 array per (1, H, W)
    image, computed ``batch`` images at a time."""
    masks = []
    for i in range(0, len(images), batch):
        probs = forward(model, Tensor(np.stack(images[i : i + batch])), mode="infer")
        masks.extend(probs_to_mask(probs, lesion_class))
    return masks


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
