import numpy as np
import pytest

from sepseg.autograd import Rng, Tensor, backward
from sepseg.data import generate_phantom, load_checkpoint, load_into_model
from sepseg.metrics import weighted_cross_entropy
from sepseg.model import ModelSpec, build_model, forward
from sepseg.train import (
    AdamState,
    NumericError,
    TrainConfig,
    adam_step,
    clip_gradients,
    _mean_dice,
    evaluate,
    kfold_split,
    run_log_lines,
    train,
)


def _scalar_param(value, grad):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    p.grad = np.array([grad], dtype=np.float32)
    return {"theta": p}


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = _scalar_param(1.5, 0.0)
        state = AdamState(lr=0.001)
        for _ in range(3):
            params["theta"].grad = np.zeros(1, dtype=np.float32)
            adam_step(params, state)
        assert params["theta"].data[0] == 1.5
        assert state.t == 3

    def test_first_step_magnitude_is_lr(self):
        params = _scalar_param(0.0, 0.1)
        adam_step(params, AdamState(lr=0.001))
        # m_hat = 0.1, sqrt(v_hat) = 0.1 -> update = lr * 0.1 / (0.1 + 1e-8)
        assert abs(params["theta"].data[0] + 0.001) <= 1e-7

    def test_second_step_smaller_than_lr(self):
        # in double precision: update = lr * g / (g + eps) < lr strictly
        p = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
        p.grad = np.array([0.1], dtype=np.float64)
        params = {"theta": p}
        state = AdamState(lr=0.001)
        adam_step(params, state)
        first = abs(float(p.data[0]))
        p.grad = np.array([0.1], dtype=np.float64)
        adam_step(params, state)
        second = abs(float(p.data[0])) - first
        assert 0.99 * 0.001 < second < 0.001

    def test_non_finite_gradient_names_parameter(self):
        params = _scalar_param(0.0, np.nan)
        with pytest.raises(NumericError, match="theta"):
            adam_step(params, AdamState(lr=0.001))

    def test_step_after_warm_up_peaks_at_three_parameter_sizes(self):
        # once the first step has made the moments, a step updates them and
        # the parameter in place; the bias-corrected update needs at most
        # three parameter-sized temporaries at once
        import tracemalloc

        tracemalloc.start()
        try:
            p = Tensor(np.zeros(1 << 18, dtype=np.float32), requires_grad=True)
            grad = np.random.default_rng(0).normal(size=p.shape).astype(np.float32)
            state = AdamState(lr=0.001)
            peaks = []
            for _ in range(3):
                p.grad = grad.copy()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                adam_step({"theta": p}, state)
                peaks.append((tracemalloc.get_traced_memory()[1] - start) / p.data.nbytes)
        finally:
            tracemalloc.stop()
        assert max(peaks[1:]) <= 3.25, peaks

    def test_in_place_step_keeps_the_bits(self):
        # the plain expressions, one new array each, against adam_step
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
        data, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
        state = AdamState(lr=0.01)
        for t in range(1, 4):
            g = rng.normal(size=p.shape).astype(np.float32)
            p.grad = g.copy()
            adam_step({"theta": p}, state)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            data = data - 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert p.data.dtype == np.float32
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(state.m["theta"], m)
            np.testing.assert_array_equal(state.v["theta"], v)

    def test_grad_clip_scales_to_max_norm(self):
        params = _scalar_param(0.0, 30.0)
        norm = clip_gradients(params)
        assert norm == pytest.approx(30.0)
        assert abs(float(params["theta"].grad[0])) == pytest.approx(5.0)


class _FakeSample:
    def __init__(self, vid, idx):
        self.volume_id = vid
        self.slice_index = idx
        self.mask = np.zeros((4, 4), dtype=np.int64)
        self.image = np.zeros((1, 4, 4), dtype=np.float32)


def _volume_split_oracle(samples, folds, fold_index, seed):
    """The volume-level split ``sepseg train`` used before one function
    served both granularities."""
    volume_ids = sorted({s.volume_id for s in samples})
    order = list(Rng(seed, 7).integers(0, 2**62, len(volume_ids)))
    shuffled = [v for _, v in sorted(zip(order, volume_ids))]
    val_ids = set(shuffled[fold_index::folds])
    train_set = [s for s in samples if s.volume_id not in val_ids]
    val_set = [s for s in samples if s.volume_id in val_ids]
    return train_set, val_set


def _slice_split_oracle(samples, folds, fold_index, seed):
    """The slice-level split ``sepseg train`` used with fewer volumes than folds."""
    order = list(Rng(seed, 7).integers(0, 2**62, len(samples)))
    shuffled = [s for _, s in sorted(zip(order, range(len(samples))))]
    val_idx = set(shuffled[fold_index::folds])
    train_set = [s for i, s in enumerate(samples) if i not in val_idx]
    val_set = [s for i, s in enumerate(samples) if i in val_idx]
    return train_set, val_set


class TestKFold:
    def _samples(self, n_volumes=8, slices=3):
        return [_FakeSample(f"v{i}", j) for i in range(n_volumes) for j in range(slices)]

    def test_75_25_arithmetic(self):
        train_set, val_set = kfold_split(self._samples(8), 4, 0, seed=0)
        assert len({s.volume_id for s in train_set}) == 6
        assert len({s.volume_id for s in val_set}) == 2

    def test_deterministic(self):
        a = kfold_split(self._samples(8), 4, 1, seed=5)
        b = kfold_split(self._samples(8), 4, 1, seed=5)
        assert [s.volume_id for s in a[0]] == [s.volume_id for s in b[0]]

    def test_folds_partition_volumes(self):
        samples = self._samples(10)
        all_val = []
        for fold in range(4):
            train_set, val_set = kfold_split(samples, 4, fold, seed=2)
            vols_t = {s.volume_id for s in train_set}
            vols_v = {s.volume_id for s in val_set}
            assert not vols_t & vols_v
            all_val.extend(sorted(vols_v))
        assert sorted(all_val) == sorted({s.volume_id for s in samples})

    def test_too_few_volumes(self):
        # 3 volumes cannot fill 4 folds, so the 9 slices are split one by one
        samples = self._samples(3)
        all_val = []
        for fold in range(4):
            train_set, val_set = kfold_split(samples, 4, fold, seed=0)
            assert len(train_set) + len(val_set) == len(samples)
            assert not {id(s) for s in train_set} & {id(s) for s in val_set}
            all_val.extend(id(s) for s in val_set)
        assert sorted(all_val) == sorted(id(s) for s in samples)
        assert {s.volume_id for s in val_set} & {s.volume_id for s in train_set}

    def test_slice_split_partition(self):
        samples = self._samples(1, slices=8)
        train_set, val_set = kfold_split(samples, 4, 0, seed=0)
        assert len(train_set) == 6 and len(val_set) == 2

    def test_matches_the_split_each_granularity_used_to_take(self):
        for n_volumes in range(1, 12):
            for slices in (1, 2, 5):
                samples = self._samples(n_volumes, slices)
                for folds in range(2, 6):
                    by_slice = n_volumes < folds
                    oracle = _slice_split_oracle if by_slice else _volume_split_oracle
                    for fold_index in range(folds):
                        for seed in range(6):
                            args = (samples, folds, fold_index, seed)
                            got, want = kfold_split(*args), oracle(*args)
                            assert [[id(s) for s in part] for part in got] == \
                                [[id(s) for s in part] for part in want], args[1:]


def _no_log(record):
    pass


def _phantom_setup(n=4, size=32):
    samples = generate_phantom(Rng(0, 9), size, n)
    spec = ModelSpec(variant="proposed", base_depth=8)
    return samples, spec


class TestTrainingLoop:
    def test_lr_zero_leaves_parameters_unchanged(self, tmp_path):
        samples, spec = _phantom_setup()
        spec.dropout_rate = 0.0
        cfg = TrainConfig(iterations=3, batch_size=2, lr=0.0, seed=0, eval_every=3,
                          augment=False)
        model, _, _ = train(spec, cfg, samples, samples[:1], str(tmp_path), _no_log)
        reference = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        for (n1, p1), (n2, p2) in zip(model.named_parameters().items(),
                                      reference.named_parameters().items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_identical_seeds_identical_logs(self, tmp_path):
        samples, spec = _phantom_setup()
        cfg = TrainConfig(iterations=4, batch_size=2, seed=7, eval_every=2)
        _, rec_a, _ = train(ModelSpec(variant="proposed", base_depth=8), cfg, samples,
                            samples[:1], str(tmp_path / "a"), _no_log)
        _, rec_b, _ = train(ModelSpec(variant="proposed", base_depth=8), cfg, samples,
                            samples[:1], str(tmp_path / "b"), _no_log)
        assert run_log_lines(rec_a) == run_log_lines(rec_b)

    def test_fixed_batch_loss_strictly_decreases(self):
        samples, spec = _phantom_setup()
        spec.dropout_rate = 0.0
        model = build_model(spec, Rng(0, 0))
        params = model.named_parameters()
        state = AdamState(lr=0.001)
        x = Tensor(np.stack([s.image for s in samples]))
        labels = np.stack([s.mask for s in samples])
        w = np.array([1.0, 1.0])
        losses = []
        for _ in range(10):
            loss = weighted_cross_entropy(forward(model, x, "train", rng=Rng(0, 1)),
                                          labels, w)
            losses.append(float(loss.data))
            backward(loss)
            adam_step(params, state)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_train_and_infer_modes_deterministic(self):
        samples, spec = _phantom_setup()
        model = build_model(spec, Rng(0, 0))
        x = Tensor(np.stack([s.image for s in samples[:2]]))
        a = forward(model, x, "infer").data
        b = forward(model, x, "infer").data
        np.testing.assert_array_equal(a, b)
        c = forward(model, x, "train", rng=Rng(0, 2)).data
        d = forward(model, x, "train", rng=Rng(0, 2)).data
        np.testing.assert_array_equal(c, d)

    def test_best_checkpoint_rule(self, tmp_path):
        samples, spec = _phantom_setup()
        cfg = TrainConfig(iterations=6, batch_size=2, seed=1, eval_every=2)
        _, records, best = train(spec, cfg, samples, samples[:2], str(tmp_path), _no_log)
        assert best[1] == max(r.val_dice for r in records)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "run_log.csv").exists()

    def test_final_checkpoint_restores_batch_norm_statistics(self, tmp_path):
        samples, spec = _phantom_setup()
        cfg = TrainConfig(iterations=4, batch_size=2, seed=7, eval_every=2)
        model, _, _ = train(spec, cfg, samples, samples[:2], str(tmp_path), _no_log)
        fresh = build_model(spec, Rng(99, 0))
        load_into_model(fresh, load_checkpoint(str(tmp_path / "final.ckpt")))
        x = Tensor(np.stack([s.image for s in samples]))
        np.testing.assert_array_equal(forward(fresh, x, "infer").data,
                                      forward(model, x, "infer").data)

    def test_empty_train_set_rejected(self, tmp_path):
        _, spec = _phantom_setup()
        with pytest.raises(ValueError):
            train(spec, TrainConfig(iterations=1), [], [], str(tmp_path), _no_log)


class TestEvaluate:
    def test_untrained_model_smoke(self):
        samples, spec = _phantom_setup()
        model = build_model(spec, Rng(0, 0))
        rows, means = evaluate(model, samples, spec.lesion_class)
        assert len(rows) == 1
        assert 0.0 <= means["dice"] <= 1.0
        for key in ("overlap", "dice", "jaccard", "overlap_global",
                    "dice_global", "jaccard_global"):
            assert key in rows[0]

    def test_empty_truth_slices_excluded_from_per_slice_mean(self):
        samples, spec = _phantom_setup()
        # blank out one sample's mask entirely
        samples[0].mask[:] = 0
        model = build_model(spec, Rng(0, 0))
        rows, _ = evaluate(model, samples, spec.lesion_class)
        assert np.isfinite(rows[0]["dice"])  # remaining slices still counted

    @pytest.mark.parametrize("lesion_class", [0, 1])
    def test_mean_dice_equals_one_volume_means(self, lesion_class):
        # training's score and eval's per-slice means come from the same slices
        samples, spec = _phantom_setup()
        assert len({s.volume_id for s in samples}) == 1
        model = build_model(spec, Rng(0, 0))
        _, means = evaluate(model, samples, lesion_class)
        dice, overlap = _mean_dice(model, samples, lesion_class)
        assert 0.0 < overlap < dice < 1.0
        assert (dice, overlap) == (means["dice"], means["overlap"])
