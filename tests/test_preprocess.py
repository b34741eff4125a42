import numpy as np
import pytest

from sepseg.autograd import Rng
from sepseg.preprocess import (
    ELASTIC_ALPHA,
    MAX_ROTATION_DEGREES,
    WindowSpec,
    augment_pair,
    elastic_deform,
    gaussian_filter,
    histogram_equalize,
    resize_bilinear,
    resize_nearest,
    rotate_pair,
    window_hu,
)


class TestWindowing:
    def test_clamp_high(self):
        assert window_hu(np.array([300.0]), WindowSpec())[0] == 1.0

    def test_clamp_low(self):
        assert window_hu(np.array([-150.0]), WindowSpec())[0] == 0.0

    def test_affine_midpoint(self):
        assert window_hu(np.array([50.0]), WindowSpec())[0] == pytest.approx(0.5)

    def test_idempotent_on_mapped_range(self):
        x = np.linspace(-300, 400, 50)
        once = window_hu(x, WindowSpec())
        # treating [0, 1] as a window again must be the identity
        twice = window_hu(once, WindowSpec(0.0, 1.0))
        np.testing.assert_allclose(twice, once, atol=1e-7)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowSpec(5.0, 5.0)


class TestHistogramEqualize:
    def test_constant_image_unchanged(self):
        x = np.full((4, 4), 0.3, dtype=np.float32)
        np.testing.assert_array_equal(histogram_equalize(x), x)

    def test_three_level_example(self):
        # quantized levels [0, 0, 85, 170] of 256: cdf [2, 3, 4] over
        # cdf_min 2 and N 4 maps them to round(255 * [0, 0, 1/2, 1])
        x = np.array([[0.0, 0.0], [1 / 3, 2 / 3]], dtype=np.float32)
        out = histogram_equalize(x)
        np.testing.assert_allclose(out, [[0.0, 0.0], [128 / 255, 1.0]], atol=1e-7)

    def test_uniform_ramp_nearly_fixed(self):
        x = np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16)
        out = histogram_equalize(x)
        assert np.abs(out - x).max() <= 1.5 / 255

    def test_monotone_mapping(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(32, 32)).astype(np.float32)
        out = histogram_equalize(x)
        order = np.argsort(x.ravel(), kind="stable")
        assert np.all(np.diff(out.ravel()[order]) >= -1e-7)


class TestResize:
    def test_identity_at_same_size(self):
        x = np.random.default_rng(0).uniform(size=(8, 8)).astype(np.float32)
        np.testing.assert_array_equal(resize_bilinear(x, 8), x)

    def test_constant(self):
        x = np.full((4, 4), 0.25, dtype=np.float32)
        np.testing.assert_allclose(resize_bilinear(x, 7), 0.25, atol=1e-7)

    def test_2x2_to_4x4_hand_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        expected = np.array(
            [
                [1.0, 1.25, 1.75, 2.0],
                [1.5, 1.75, 2.25, 2.5],
                [2.5, 2.75, 3.25, 3.5],
                [3.0, 3.25, 3.75, 4.0],
            ]
        )
        np.testing.assert_allclose(resize_bilinear(x, 4), expected, atol=1e-6)

    def test_nearest_keeps_labels(self):
        m = np.random.default_rng(1).integers(0, 3, (10, 10))
        out = resize_nearest(m, 7)
        assert set(np.unique(out)) <= set(np.unique(m))


class TestRotation:
    def test_zero_angle_identity(self):
        img = np.random.default_rng(0).uniform(size=(8, 8)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        out_img, out_mask = rotate_pair(img, mask, 0.0)
        np.testing.assert_array_equal(out_img, img)
        np.testing.assert_array_equal(out_mask, mask)

    def test_180_degrees_is_exact_flip(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        mask = np.array([[1, 0], [0, 1]])
        out_img, out_mask = rotate_pair(img, mask, 180.0)
        np.testing.assert_array_equal(out_img, [[4.0, 3.0], [2.0, 1.0]])
        np.testing.assert_array_equal(out_mask, [[1, 0], [0, 1]])

    def test_180_twice_is_involution(self):
        img = np.random.default_rng(2).uniform(size=(9, 9)).astype(np.float32)
        mask = (img > 0.4).astype(np.int64)
        once = rotate_pair(img, mask, 180.0)
        twice = rotate_pair(once[0], once[1], 180.0)
        np.testing.assert_array_equal(twice[0], img)
        np.testing.assert_array_equal(twice[1], mask)

    def test_random_rotation_preserves_shapes_and_binary_mask(self):
        img = np.random.default_rng(3).uniform(size=(16, 16)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        angle = Rng(0, 5).uniform(-MAX_ROTATION_DEGREES, MAX_ROTATION_DEGREES)
        out_img, out_mask = rotate_pair(img, mask, angle)
        assert out_img.shape == img.shape and out_mask.shape == mask.shape
        assert set(np.unique(out_mask)) <= {0, 1}


class TestElasticDeform:
    def test_mask_stays_binary(self):
        img = np.random.default_rng(5).uniform(size=(32, 32)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        _, out_mask = elastic_deform(img, mask, Rng(0, 7))
        assert set(np.unique(out_mask)) <= {0, 1}

    def test_heavy_smoothing_is_near_rigid(self):
        noise = Rng(0, 8).normal(size=(32, 32))
        field = gaussian_filter(noise, 1000.0) * ELASTIC_ALPHA
        assert np.abs(field - field.mean()).max() < 0.01 * ELASTIC_ALPHA

    @pytest.mark.parametrize("sigma", [0.5, 1, 4])
    @pytest.mark.parametrize(
        "shape",
        [(64, 64), (32, 32), (16, 16), (256, 256), (512, 512), (48, 80), (17, 5), (3, 40), (1, 1)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_gaussian_filter_matches_ndimage_bits(self, shape, sigma):
        ndimage = pytest.importorskip("scipy.ndimage")
        noise = Rng(0, 9).normal(size=shape)
        np.testing.assert_array_equal(
            gaussian_filter(noise, sigma), ndimage.gaussian_filter(noise, sigma)
        )


class TestPipeline:
    def test_bit_reproducible_with_fixed_stream(self):
        img = np.random.default_rng(6).uniform(size=(16, 16)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        a = augment_pair(img, mask, Rng(11, 2))
        b = augment_pair(img, mask, Rng(11, 2))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_shapes_preserved(self):
        img = np.random.default_rng(7).uniform(size=(16, 16)).astype(np.float32)
        mask = (img > 0.5).astype(np.int64)
        out_img, out_mask = augment_pair(img, mask, Rng(1, 3))
        assert out_img.shape == (16, 16) and out_mask.shape == (16, 16)
