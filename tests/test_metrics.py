import numpy as np
import pytest

from sepseg.autograd import ShapeError, Tensor, backward, grad_check
from sepseg.layers import softmax_channels
from sepseg.metrics import (
    inverse_frequency_weights,
    mask_scores,
    probs_to_mask,
    weighted_cross_entropy,
)


def random_mask_pair(rng, shape=(16, 16)):
    return rng.integers(0, 2, shape), rng.integers(0, 2, shape)


class TestScores:
    def test_identical_masks(self):
        m = np.ones((4, 4))
        assert mask_scores(m, m) == (1.0, 1.0, 1.0)

    def test_disjoint_masks(self):
        a = np.zeros((4, 4))
        a[:2] = 1
        b = np.zeros((4, 4))
        b[2:] = 1
        assert mask_scores(a, b)[0] == 0.0

    def test_overlap_one_example(self):
        truth = np.array([1, 1, 0, 0])
        pred = np.array([0, 1, 1, 0])
        assert mask_scores(pred, truth) == pytest.approx((1 / 3, 0.5, 1 / 3))

    def test_empty_empty_is_one(self):
        z = np.zeros((3, 3))
        assert mask_scores(z, z) == (1.0, 1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mask_scores(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_overlap_equals_jaccard_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pred, truth = random_mask_pair(rng)
            overlap, dice, j = mask_scores(pred, truth)
            assert abs(overlap - j) <= 1e-12
            assert abs(dice - 2 * j / (1 + j)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_mask_pair(rng)
            assert mask_scores(a, b) == mask_scores(b, a)

    def test_scores_in_unit_interval_and_one_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_mask_pair(rng)
            for s in mask_scores(a, b):
                assert 0.0 <= s <= 1.0
                assert (s == 1.0) == np.array_equal(a.astype(bool), b.astype(bool))


class TestWeightedCrossEntropy:
    def test_perfect_prediction(self):
        labels = np.array([[[0, 1]]])
        probs = np.zeros((1, 2, 1, 2), dtype=np.float32)
        probs[0, 0, 0, 0] = 1.0
        probs[0, 1, 0, 1] = 1.0
        loss = weighted_cross_entropy(Tensor(probs), labels, np.array([1.0, 1.0]))
        assert float(loss.data) <= 1e-10

    def test_hand_value(self):
        probs = Tensor(np.full((1, 2, 1, 1), 0.5, dtype=np.float64))
        labels = np.array([[[1]]])
        loss = weighted_cross_entropy(probs, labels, np.array([1.0, 2.0]))
        assert float(loss.data) == pytest.approx(2 * np.log(2), rel=1e-10)

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(1, 2, 3, 3)))
        labels = rng.integers(0, 2, (1, 3, 3))
        w = np.array([1.0, 2.0])
        err = grad_check(
            lambda t: weighted_cross_entropy(softmax_channels(t), labels, w), logits
        )
        assert err <= 1e-4

    def test_unit_weights_equal_unweighted(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(1, 3, 4, 4))
        labels = rng.integers(0, 3, (1, 4, 4))
        probs = softmax_channels(Tensor(logits))
        weighted = float(weighted_cross_entropy(probs, labels, np.array([1.0] * 3)).data)
        onehot = np.eye(3)[labels].transpose(0, 3, 1, 2)
        unweighted = float(-(onehot * np.log(probs.data)).sum(1).mean())
        assert weighted == pytest.approx(unweighted, rel=1e-10)

    def test_label_out_of_range(self):
        probs = Tensor(np.full((1, 2, 1, 1), 0.5))
        with pytest.raises(ValueError):
            weighted_cross_entropy(probs, np.array([[[2]]]), np.array([1.0, 1.0]))

    def test_loss_decreases_under_gradient_descent(self):
        # 1-pixel toy problem, plain gradient steps
        logits = Tensor(np.array([[[[0.3]], [[-0.2]]]], dtype=np.float64),
                        requires_grad=True)
        labels = np.array([[[1]]])
        w = np.array([1.0, 1.0])
        prev = np.inf
        for _ in range(10):
            loss = weighted_cross_entropy(softmax_channels(logits), labels, w)
            assert float(loss.data) < prev
            prev = float(loss.data)
            logits.zero_grad()
            backward(loss)
            logits = Tensor(logits.data - 0.1 * logits.grad, requires_grad=True)


class TestProbsToMask:
    def test_background_everywhere(self):
        probs = np.tile(np.array([0.9, 0.1])[None, :, None, None], (1, 1, 3, 3))
        np.testing.assert_array_equal(probs_to_mask(probs, 1), np.zeros((1, 3, 3)))

    def test_lesion_everywhere(self):
        probs = np.tile(np.array([0.1, 0.9])[None, :, None, None], (1, 1, 3, 3))
        np.testing.assert_array_equal(probs_to_mask(probs, 1), np.ones((1, 3, 3)))

    def test_tie_breaks_to_lower_class(self):
        probs = np.full((1, 2, 2, 2), 0.5)
        np.testing.assert_array_equal(probs_to_mask(probs, 1), np.zeros((1, 2, 2)))

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            probs_to_mask(np.zeros((1, 2, 2, 2)), 5)

    @pytest.mark.parametrize("c", [2, 3])
    def test_matches_argmax_with_ties_and_nans(self, c):
        rng = np.random.default_rng(c)
        # few distinct values, so most pixels hold ties; a fifth are NaN
        probs = rng.integers(0, 3, size=(3, c, 8, 8)).astype(np.float32) / 2
        probs[rng.uniform(size=probs.shape) < 0.2] = np.nan
        probs[:, :, 0, 0] = [np.nan] * c  # all NaN: channel 0 wins
        probs[:, :, 0, 1] = [-0.0, 0.0, -0.0][:c]  # signed zeros tie
        for lesion in range(c):
            want = (np.argmax(probs, axis=1) == lesion).astype(np.uint8)
            np.testing.assert_array_equal(probs_to_mask(probs, lesion), want)


class TestClassWeights:
    def test_inverse_frequency(self):
        labels = [np.array([[0, 0, 0, 1]])]
        w = inverse_frequency_weights(labels, 2)
        assert w.dtype == np.float64 and w.shape == (2,)
        assert w[1] > w[0] > 0
        assert np.all(w <= 10.0) and np.all(w >= 0.1)

    def test_clamp_after_normalization(self):
        labels = [np.concatenate([np.zeros(10_000, dtype=int), np.ones(1, dtype=int)])]
        w = inverse_frequency_weights(labels, 2)
        # common class would normalize to ~2e-4; the floor clamp applies
        assert w[0] == 0.1
        assert w[1] == pytest.approx(2.0, rel=1e-3)
