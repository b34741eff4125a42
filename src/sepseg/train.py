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
from .metrics import inverse_frequency_weights, mask_scores, weighted_cross_entropy
from .model import ModelSpec, build_model, forward, predict_masks
from .preprocess import augment_pair

GRAD_CLIP = 5.0  # global gradient-norm bound
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# evaluate's score columns: per-slice means, then scores of the pooled slices
SCORE_COLUMNS = ("overlap", "dice", "jaccard", "overlap_global", "dice_global", "jaccard_global")


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
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval interval must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    lr: float
    # state, not settings: the step count and the moment estimates by name
    t: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)


def adam_step(params, state: AdamState):
    """One Adam update, in place, of named parameters and their moments from
    each one's ``grad``, which every training backward sets; resets each ``grad``."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.zero_grad()


def clip_gradients(params):
    """Global-norm clipping of every ``grad`` at ``GRAD_CLIP``; returns the pre-clip norm."""
    sq = 0.0
    for p in params.values():
        sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(sq))
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for p in params.values():
            p.grad *= scale
    return norm


def kfold_split(samples, folds: int, fold_index: int, seed: int):
    """(train, validation) split; the validation fold is every ``folds``-th
    group, from ``fold_index``, of a seeded shuffle of the sorted groups.

    A group is a volume, or a single slice when there are fewer volumes
    than folds (phantom slices share one volume id). Deterministic given
    the seed; over all fold indices the validation sets partition the
    groups. Both lists keep the order of ``samples``.
    """
    keys = [s.volume_id for s in samples]
    if len(set(keys)) < folds:
        keys = range(len(samples))
    groups = sorted(set(keys))
    order = list(Rng(seed, 7).integers(0, 2**62, len(groups)))
    val_keys = set([g for _, g in sorted(zip(order, groups))][fold_index::folds])
    train = [s for s, k in zip(samples, keys) if k not in val_keys]
    val = [s for s, k in zip(samples, keys) if k in val_keys]
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


def _draw_batch(train_set, lesion_idx, batch_size, rng):
    """Sample with replacement, forcing >= 1 of the lesion-bearing slices
    ``lesion_idx`` when the split has any."""
    n = len(train_set)
    idx = list(rng.integers(0, n, batch_size))
    if lesion_idx and set(idx).isdisjoint(lesion_idx):
        idx[0] = lesion_idx[int(rng.integers(0, len(lesion_idx)))]
    return [train_set[i] for i in idx]


def _batch_arrays(batch, config, rng_aug):
    images, labels = [], []
    for slot, s in enumerate(batch):
        img, msk = s.image[0], s.mask
        if config.augment:
            img, msk = augment_pair(img, msk, rng_aug.substream(slot))
        images.append(img[None])
        labels.append(msk)
    return np.stack(images), np.stack(labels)


def _slice_scores(model, samples, lesion_class):
    """Infer-mode masks and truths of ``samples``, and the
    (overlap, dice, jaccard) of each slice whose truth holds the class."""
    preds = predict_masks(model, [s.image for s in samples], lesion_class)
    truths = [(s.mask == lesion_class).astype(np.uint8) for s in samples]
    scores = [mask_scores(p, t) for p, t in zip(preds, truths) if t.any()]
    return preds, truths, scores


def _mean_dice(model, samples, lesion_class):
    """(dice, overlap) averaged over the slices whose truth holds the
    class, in infer mode; (0, 0) when none does."""
    _, _, scores = _slice_scores(model, samples, lesion_class)
    if not scores:
        return 0.0, 0.0
    overlap, dice, _ = (float(np.mean(col)) for col in zip(*scores))
    return dice, overlap


def _snapshot(model):
    """Checkpoint entries: copies of the parameters, then of the
    batch-norm running statistics."""
    entries = OrderedDict((k, p.data.copy()) for k, p in model.named_parameters().items())
    entries.update((k, s.copy()) for k, s in model.named_statistics().items())
    return entries


def _check_labels(samples, num_classes):
    """Reject the first sample whose mask holds a label the model has no class for."""
    for s in samples:
        lo, hi = int(s.mask.min()), int(s.mask.max())
        if lo < 0 or hi >= num_classes:
            raise DataError(f"volume {s.volume_id!r} slice {s.slice_index}: mask label "
                            f"{lo if lo < 0 else hi} outside [0, {num_classes})")


def train(model_spec: ModelSpec, config: TrainConfig, train_set, val_set, out_dir, log_fn):
    """Run the optimization loop; returns (model, records, best).

    ``best`` is (iteration, val_dice, checkpoint entries). ``log_fn`` gets
    each RunRecord as it is made, and best.ckpt / final.ckpt / run_log.csv /
    timing.txt are written to ``out_dir``. An empty split, or a mask label
    outside ``[0, num_classes)``, raises DataError before the model is built.
    """
    if not train_set:
        raise DataError("training split is empty")
    if not val_set:
        raise DataError("validation split is empty")
    _check_labels([*train_set, *val_set], model_spec.num_classes)
    rng = Rng(config.seed)
    model = build_model(model_spec, rng.substream(0))
    weights = inverse_frequency_weights(
        (s.mask for s in train_set), model_spec.num_classes
    )
    params = model.named_parameters()
    state = AdamState(lr=config.lr)
    lesion = model_spec.lesion_class
    lesion_idx = [i for i, s in enumerate(train_set) if np.any(s.mask == lesion)]
    records = []
    best = None  # (iteration, val_dice, snapshot)
    start = time.time()

    for it in range(1, config.iterations + 1):
        batch = _draw_batch(train_set, lesion_idx, config.batch_size, rng.substream(1, it))
        x_np, y_np = _batch_arrays(batch, config, rng.substream(2, it))
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
        clip_gradients(params)
        adam_step(params, state)

        if it % config.eval_every == 0 or it == config.iterations:
            train_dice, _ = _mean_dice(model, train_set, lesion)
            val_dice, val_overlap = _mean_dice(model, val_set, lesion)
            rec = RunRecord(it, loss_val, train_dice, val_dice, val_overlap,
                            time.time() - start)
            records.append(rec)
            log_fn(rec)
            if best is None or val_dice > best[1]:
                best = (it, val_dice, _snapshot(model))

    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(best[2], os.path.join(out_dir, "best.ckpt"))
    save_checkpoint(_snapshot(model), os.path.join(out_dir, "final.ckpt"))
    with open(os.path.join(out_dir, "run_log.csv"), "w") as fh:
        fh.write(run_log_lines(records))
    with open(os.path.join(out_dir, "timing.txt"), "w") as fh:
        for r in records:
            fh.write(f"{r.iteration},{r.wall_time:.3f}\n")
    return model, records, best


def evaluate(model, samples, lesion_class: int):
    """Per-volume rows and their means of ``lesion_class``'s scores in
    infer mode, keyed by ``SCORE_COLUMNS``.

    The plain scores are means over the volume's slices whose truth holds
    the class (NaN when none does). The ``_global`` scores pool every pixel
    of the volume's slices that ``samples`` holds; for a dataset from
    ``build_slice_dataset`` that is only the slices its filter keeps, not
    the whole volume. A mean skips NaN rows. A mask label outside
    ``[0, num_classes)`` raises DataError, as in ``train``.
    """
    _check_labels(samples, model.spec.num_classes)
    by_volume = OrderedDict()
    for s in samples:
        by_volume.setdefault(s.volume_id, []).append(s)
    rows = []
    for vid, group in by_volume.items():
        preds, truths, scores = _slice_scores(model, group, lesion_class)
        per_slice = [float(np.mean(col)) for col in zip(*scores)] or [float("nan")] * 3
        pooled = mask_scores(np.stack(preds), np.stack(truths))
        rows.append({"volume_id": vid, **dict(zip(SCORE_COLUMNS, (*per_slice, *pooled)))})
    means = {}
    for key in SCORE_COLUMNS:
        vals = [r[key] for r in rows if np.isfinite(r[key])]
        means[key] = float(np.mean(vals)) if vals else float("nan")
    return rows, means
