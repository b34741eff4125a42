import numpy as np
import pytest

from sepseg.autograd import Rng, Tensor, backward
from sepseg.data import generate_phantom, load_checkpoint, load_into_model
from sepseg.metrics import ClassWeights, weighted_cross_entropy
from sepseg.model import ModelSpec, build_model, forward
from sepseg.train import (
    AdamState,
    NumericError,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate,
    kfold_split,
    run_log_lines,
    split_slices,
    train,
)


def _scalar_param(value, grad):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    p.grad = np.array([grad], dtype=np.float32)
    return {"theta": p}


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = _scalar_param(1.5, 0.0)
        state = AdamState()
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
            adam_step(params, AdamState())

    def test_grad_clip_scales_to_max_norm(self):
        params = _scalar_param(0.0, 30.0)
        norm = clip_gradients(params, 5.0)
        assert norm == pytest.approx(30.0)
        assert abs(float(params["theta"].grad[0])) == pytest.approx(5.0)


class _FakeSample:
    def __init__(self, vid, idx):
        self.volume_id = vid
        self.slice_index = idx
        self.mask = np.zeros((4, 4), dtype=np.int64)
        self.image = np.zeros((1, 4, 4), dtype=np.float32)


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
        with pytest.raises(ValueError):
            kfold_split(self._samples(3), 4, 0, seed=0)

    def test_slice_split_partition(self):
        samples = self._samples(1, slices=8)
        train_set, val_set = split_slices(samples, 4, 0, seed=0)
        assert len(train_set) == 6 and len(val_set) == 2


def _phantom_setup(n=4, size=32):
    samples = generate_phantom(Rng(0, 9), size, n)
    spec = ModelSpec(variant="proposed", base_depth=8)
    return samples, spec


class TestTrainingLoop:
    def test_lr_zero_leaves_parameters_unchanged(self):
        samples, spec = _phantom_setup()
        spec.dropout_rate = 0.0
        cfg = TrainConfig(iterations=3, batch_size=2, lr=0.0, seed=0, eval_every=3,
                          augment=False)
        model, _, _ = train(spec, cfg, samples, [])
        reference = build_model(ModelSpec(variant="proposed", base_depth=8), Rng(0, 0))
        for (n1, p1), (n2, p2) in zip(model.named_parameters().items(),
                                      reference.named_parameters().items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_identical_seeds_identical_logs(self):
        samples, spec = _phantom_setup()
        cfg = TrainConfig(iterations=4, batch_size=2, seed=7, eval_every=2)
        _, rec_a, _ = train(ModelSpec(variant="proposed", base_depth=8), cfg, samples, [])
        _, rec_b, _ = train(ModelSpec(variant="proposed", base_depth=8), cfg, samples, [])
        assert run_log_lines(rec_a) == run_log_lines(rec_b)

    def test_fixed_batch_loss_strictly_decreases(self):
        samples, spec = _phantom_setup()
        spec.dropout_rate = 0.0
        model = build_model(spec, Rng(0, 0))
        params = model.named_parameters()
        state = AdamState(lr=0.001)
        x = Tensor(np.stack([s.image for s in samples]))
        labels = np.stack([s.mask for s in samples])
        w = ClassWeights([1.0, 1.0])
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
        _, records, best = train(spec, cfg, samples, samples[:2], out_dir=str(tmp_path))
        assert best[1] == max(r.val_dice for r in records)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "run_log.csv").exists()

    def test_final_checkpoint_restores_batch_norm_statistics(self, tmp_path):
        samples, spec = _phantom_setup()
        cfg = TrainConfig(iterations=4, batch_size=2, seed=7, eval_every=2)
        model, _, _ = train(spec, cfg, samples, samples[:2], out_dir=str(tmp_path))
        fresh = build_model(spec, Rng(99, 0))
        load_into_model(fresh, load_checkpoint(str(tmp_path / "final.ckpt")))
        x = Tensor(np.stack([s.image for s in samples]))
        np.testing.assert_array_equal(forward(fresh, x, "infer").data,
                                      forward(model, x, "infer").data)

    def test_empty_train_set_rejected(self):
        _, spec = _phantom_setup()
        with pytest.raises(ValueError):
            train(spec, TrainConfig(iterations=1), [], [])


class TestEvaluate:
    def test_untrained_model_smoke(self):
        samples, spec = _phantom_setup()
        model = build_model(spec, Rng(0, 0))
        rows, means = evaluate(model, samples)
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
        rows, _ = evaluate(model, samples)
        assert np.isfinite(rows[0]["dice"])  # remaining slices still counted
