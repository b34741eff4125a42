"""Segmentation scores and the weighted cross-entropy training loss.

``mask_scores`` gives the overlap |A∩B| / (|A| + |B\\A|), the Dice
coefficient and the Jaccard index of a predicted mask B against a true
mask A from one count of their intersection and union. The overlap is
the paper's evaluation ratio and algebraically the Jaccard index, so
those two are equal; the Dice coefficient is the score LiTS reports.

The loss weighs each pixel by its label's class weight, one float64 entry
per class, as ``inverse_frequency_weights`` returns them.
"""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError, Tensor, _accum, _make

WEIGHT_CLAMP = (0.1, 10.0)  # bounds of a class weight after normalization


def mask_scores(pred, truth):
    """(overlap, dice, jaccard) of ``pred`` against ``truth``, nonzero
    meaning inside; two empty masks score 1 on all three."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {truth.shape}")
    ntp = int(np.count_nonzero(pred & truth))
    union = int(np.count_nonzero(pred | truth))
    if union == 0:
        return 1.0, 1.0, 1.0
    return ntp / union, 2 * ntp / (union + ntp), ntp / union


def weighted_cross_entropy(probs: Tensor, labels, weights: np.ndarray) -> Tensor:
    """Mean over pixels of -w[label] * ln(prob[label]), ln clamped at 1e-12.

    ``probs`` is (N, C, H, W) with channel sums 1 (e.g. a softmax output,
    through which this loss stays differentiable); ``labels`` is an
    integer (N, H, W) array; ``weights`` is a float64 array of one weight
    per class.

    The loss is one graph node whose only parent is ``probs``. Its value and
    backward run the expressions of the seven-node chain it replaced (pick
    by one-hot, sum over channels, clamped log, negate, weight, mean) in
    that chain's order, so value and gradient keep the chain's bits.
    """
    labels = np.asarray(labels)
    n, c, h, w = probs.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match probs {probs.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    onehot = np.zeros((n, c, h, w), dtype=probs.dtype)
    np.put_along_axis(onehot, labels[:, None], 1.0, axis=1)
    pixel_w = weights.astype(probs.dtype)[labels][:, None]  # (N,1,H,W)
    picked = (probs.data * onehot).sum(axis=1, keepdims=True)
    clamped = np.maximum(picked, 1e-12)
    scale = 1.0 / picked.size
    pn = probs.node

    def bwd(g):
        gp = np.broadcast_to(g * scale, picked.shape) * pixel_w * -1.0
        gp = np.where(picked >= 1e-12, gp / clamped, 0.0)
        _accum(pn, np.broadcast_to(gp, onehot.shape) * onehot)

    return _make((-np.log(clamped) * pixel_w).sum() * scale, (probs,), bwd)


def probs_to_mask(probs, lesion_class: int):
    """Per-pixel channel argmax of the (N, C, H, W) array ``probs`` ==
    lesion_class, by its rules: on a tie the lower index wins, and the first NaN wins.

    One compare per other channel instead of an argmax over the channel
    axis: the lesion channel must beat every lower channel (be greater, or
    be NaN where that channel is not) and lose to no higher one (be at least
    as great, or be NaN).
    """
    c = probs.shape[1]
    if not 0 <= lesion_class < c:
        raise ValueError(f"lesion class {lesion_class} out of range for {c} classes")
    v = probs[:, lesion_class]
    nan = np.isnan(v)
    mask = np.ones(v.shape, dtype=bool)
    for ch in range(c):
        u = probs[:, ch]
        if ch < lesion_class:
            mask &= (v > u) | (nan & ~np.isnan(u))
        elif ch > lesion_class:
            mask &= (v >= u) | nan
    return mask.astype(np.uint8)


def inverse_frequency_weights(labels_iter, num_classes) -> np.ndarray:
    """Inverse-class-frequency weights, normalized to mean 1 and clamped to
    ``WEIGHT_CLAMP``, as a float64 array of one weight per class.

    ``labels_iter`` yields integer label arrays (the training split).
    """
    counts = np.zeros(num_classes, dtype=np.int64)
    for labels in labels_iter:
        counts += np.bincount(np.asarray(labels).ravel(), minlength=num_classes)
    total = counts.sum()
    freq = np.where(counts > 0, counts / max(total, 1), 1.0)
    w = 1.0 / freq
    w = w / w.mean()
    return np.clip(w, *WEIGHT_CLAMP)
