"""Adam optimizer, training loop, k-fold splitting and evaluation.

The loop draws stratified batches with replacement, augments them,
optimizes weighted cross-entropy and tracks the best-validation
checkpoint. Everything is driven by explicit RNG substreams, so a run is
bit-reproducible from its seed.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .autograd import Rng, Tensor, backward
from .data import DataError, save_checkpoint
from .metrics import (
    dice_standard,
    inverse_frequency_weights,
    jaccard,
    overlap_score,
    weighted_cross_entropy,
)
from .model import ModelSpec, build_model, forward, predict_masks
from .preprocess import AugmentSpec, augment_pair

GRAD_CLIP = 5.0  # global gradient-norm bound
LESION_CLASS = 1


class NumericError(RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""


@dataclass
class TrainConfig:
    iterations: int = 100_000
    batch_size: int = 16
    lr: float = 0.001
    eval_every: int = 500
    augment: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not self.lr >= 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval interval must be >= 1, got {self.eval_every}")


@dataclass
class AdamState:
    lr: float = TrainConfig.lr
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state: AdamState):
    """One Adam update over named parameters; gradients are consumed from
    each tensor's ``grad`` and reset afterwards."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.zero_grad()


def clip_gradients(params, max_norm: float):
    """Global-norm gradient clipping; returns the pre-clip norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(sq))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


def kfold_split(samples, folds: int, fold_index: int, seed: int):
    """Volume-granularity split; validation fold selected by index.

    Deterministic given the seed; the union of all folds' validation
    sets partitions the volumes.
    """
    volume_ids = sorted({s.volume_id for s in samples})
    if len(volume_ids) < folds:
        raise ValueError(f"need at least {folds} volumes for {folds} folds, "
                         f"got {len(volume_ids)}")
    order = list(Rng(seed, 7).integers(0, 2**62, len(volume_ids)))
    shuffled = [v for _, v in sorted(zip(order, volume_ids))]
    val_ids = set(shuffled[fold_index::folds])
    train = [s for s in samples if s.volume_id not in val_ids]
    val = [s for s in samples if s.volume_id in val_ids]
    return train, val


def split_slices(samples, folds: int, fold_index: int, seed: int):
    """Slice-granularity fallback split for single-volume datasets
    (e.g. phantoms), same fold semantics as kfold_split."""
    order = list(Rng(seed, 7).integers(0, 2**62, len(samples)))
    shuffled = [s for _, s in sorted(zip(order, range(len(samples))))]
    val_idx = set(shuffled[fold_index::folds])
    train = [s for i, s in enumerate(samples) if i not in val_idx]
    val = [s for i, s in enumerate(samples) if i in val_idx]
    return train, val


@dataclass
class RunRecord:
    iteration: int
    loss: float
    train_dice: float
    val_dice: float
    val_overlap: float
    wall_time: float


def run_log_lines(records):
    """Deterministic log rows; wall time is kept out so identically
    seeded runs produce byte-identical logs."""
    lines = ["iteration,loss,train_dice,val_dice,val_overlap"]
    for r in records:
        lines.append(
            f"{r.iteration},{r.loss:.8f},{r.train_dice:.6f},{r.val_dice:.6f},{r.val_overlap:.6f}"
        )
    return "\n".join(lines) + "\n"


def _draw_batch(train_set, lesion_idx, batch_size, rng, lesion_class):
    """Sample with replacement, forcing >= 1 lesion-bearing slice when
    the split has any."""
    n = len(train_set)
    idx = list(rng.integers(0, n, batch_size))
    if lesion_idx and not any(np.any(train_set[i].mask == lesion_class) for i in idx):
        idx[0] = lesion_idx[int(rng.integers(0, len(lesion_idx)))]
    return [train_set[i] for i in idx]


def _batch_arrays(batch, config, rng_aug, aug_spec):
    images, labels = [], []
    for slot, s in enumerate(batch):
        img, msk = s.image[0], s.mask
        if config.augment:
            img, msk = augment_pair(img, msk, aug_spec, rng_aug.substream(slot))
        images.append(img[None])
        labels.append(msk)
    return np.stack(images), np.stack(labels)


def _mean_dice(model, samples, batch, lesion_class):
    """Mean per-slice dice (standard + overlap) in infer mode; slices
    with empty truth are skipped for the per-slice mean."""
    dices, overlaps = [], []
    preds = predict_masks(model, [s.image for s in samples], batch, lesion_class)
    for s, pred in zip(samples, preds):
        truth = (s.mask == lesion_class).astype(np.uint8)
        if not truth.any():
            continue
        dices.append(dice_standard(pred, truth))
        overlaps.append(overlap_score(pred, truth))
    if not dices:
        return 0.0, 0.0
    return float(np.mean(dices)), float(np.mean(overlaps))


def _snapshot(model):
    """Checkpoint entries: copies of the parameters, then of the
    batch-norm running statistics."""
    entries = OrderedDict((k, p.data.copy()) for k, p in model.named_parameters().items())
    entries.update((k, s.copy()) for k, s in model.named_statistics().items())
    return entries


def train(model_spec: ModelSpec, config: TrainConfig, train_set, val_set,
          out_dir=None, log_fn=None):
    """Run the optimization loop; returns (model, records, best).

    ``best`` is (iteration, val_dice, checkpoint entries). When ``out_dir``
    is given, best.ckpt / final.ckpt / run_log.csv / timing.txt are
    written there.
    """
    if not train_set:
        raise DataError("training split is empty")
    aug_spec = AugmentSpec()
    rng = Rng(config.seed)
    model = build_model(model_spec, rng.substream(0))
    weights = inverse_frequency_weights(
        (s.mask for s in train_set), model_spec.num_classes
    )
    params = model.named_parameters()
    state = AdamState(lr=config.lr)
    lesion_idx = [i for i, s in enumerate(train_set) if np.any(s.mask == LESION_CLASS)]
    records = []
    best = None  # (iteration, val_dice, snapshot)
    start = time.time()

    for it in range(1, config.iterations + 1):
        batch = _draw_batch(
            train_set, lesion_idx, config.batch_size, rng.substream(1, it), LESION_CLASS,
        )
        x_np, y_np = _batch_arrays(batch, config, rng.substream(2, it), aug_spec)
        x = Tensor(x_np)
        probs = forward(model, x, mode="train", rng=rng.substream(3, it))
        loss = weighted_cross_entropy(probs, y_np, weights)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise NumericError(
                f"non-finite loss {loss_val} at iteration {it} "
                f"(batch volumes {[s.volume_id for s in batch]})"
            )
        backward(loss)
        clip_gradients(params, GRAD_CLIP)
        adam_step(params, state)

        if it % config.eval_every == 0 or it == config.iterations:
            train_dice, _ = _mean_dice(model, train_set, config.batch_size, LESION_CLASS)
            val_dice, val_overlap = _mean_dice(
                model, val_set if val_set else train_set, config.batch_size, LESION_CLASS,
            )
            rec = RunRecord(it, loss_val, train_dice, val_dice, val_overlap,
                            time.time() - start)
            records.append(rec)
            if log_fn:
                log_fn(rec)
            if best is None or val_dice > best[1]:
                best = (it, val_dice, _snapshot(model))

    if best is None:
        best = (config.iterations, 0.0, _snapshot(model))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(best[2], os.path.join(out_dir, "best.ckpt"))
        save_checkpoint(_snapshot(model), os.path.join(out_dir, "final.ckpt"))
        with open(os.path.join(out_dir, "run_log.csv"), "w") as fh:
            fh.write(run_log_lines(records))
        with open(os.path.join(out_dir, "timing.txt"), "w") as fh:
            for r in records:
                fh.write(f"{r.iteration},{r.wall_time:.3f}\n")
    return model, records, best


def evaluate(model, samples, lesion_class: int = LESION_CLASS, batch: int = 8):
    """Per-volume and aggregate scores in infer mode.

    Per-volume rows: mean per-slice scores over slices with nonempty
    truth; a global-voxel variant pools all pixels of the volume.
    """
    by_volume = OrderedDict()
    for s in samples:
        by_volume.setdefault(s.volume_id, []).append(s)
    rows = []
    for vid, group in by_volume.items():
        pred = np.stack(predict_masks(model, [s.image for s in group], batch, lesion_class))
        truth = np.stack([(s.mask == lesion_class) for s in group]).astype(np.uint8)
        slice_scores = [
            (overlap_score(pred[i], truth[i]), dice_standard(pred[i], truth[i]),
             jaccard(pred[i], truth[i]))
            for i in range(len(group))
            if truth[i].any()
        ]
        if slice_scores:
            per_slice = tuple(float(np.mean(col)) for col in zip(*slice_scores))
        else:
            per_slice = (float("nan"),) * 3
        global_scores = (overlap_score(pred, truth), dice_standard(pred, truth),
                         jaccard(pred, truth))
        rows.append({
            "volume_id": vid,
            "overlap": per_slice[0],
            "dice": per_slice[1],
            "jaccard": per_slice[2],
            "overlap_global": global_scores[0],
            "dice_global": global_scores[1],
            "jaccard_global": global_scores[2],
        })
    means = {}
    for key in ("overlap", "dice", "jaccard", "overlap_global", "dice_global",
                "jaccard_global"):
        vals = [r[key] for r in rows if np.isfinite(r[key])]
        means[key] = float(np.mean(vals)) if vals else float("nan")
    return rows, means
