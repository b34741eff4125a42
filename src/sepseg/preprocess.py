"""CT intensity preprocessing and training-time augmentation.

Hounsfield-unit windowing, histogram equalization, bilinear resizing
(half-pixel centers, same convention as the upsampling layer), random
rotation and elastic/zoom deformation. All randomness comes from an
explicit Rng stream so the pipeline is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .autograd import Rng
from .layers import _linear_resample_coeffs


@dataclass
class WindowSpec:
    low: float = -100.0
    high: float = 200.0

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"window low {self.low} must be below high {self.high}")


@dataclass
class AugmentSpec:
    max_rotation_degrees: float = 180.0
    zoom_factor: float = 0.2  # scale drawn uniformly from [1 - z, 1 + z]
    elastic_alpha: float = 10.0  # displacement strength, pixels
    elastic_sigma: float = 4.0  # displacement smoothness, pixels

    def __post_init__(self):
        if not 0.0 <= self.zoom_factor < 1.0:
            raise ValueError(f"zoom factor must be in [0, 1), got {self.zoom_factor}")
        if not 0.0 <= self.max_rotation_degrees <= 180.0:
            raise ValueError(
                f"max rotation must be in [0, 180], got {self.max_rotation_degrees}"
            )


def window_hu(x, w: WindowSpec = WindowSpec()):
    """Clamp to [low, high] HU and map affinely to [0, 1]."""
    x = np.asarray(x, dtype=np.float32)
    return (np.clip(x, w.low, w.high) - w.low) / (w.high - w.low)


def histogram_equalize(x, bins: int = 256):
    """CDF-based contrast equalization on a [0, 1] image.

    Quantizes to ``bins`` levels and maps level v to
    (cdf(v) - cdf_min) / (N - cdf_min), rescaled back to [0, 1]. The
    mapping is monotone non-decreasing; a constant image is returned
    unchanged (degenerate cdf).
    """
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    x = np.asarray(x, dtype=np.float32)
    levels = np.floor(x * (bins - 1) + 0.5).astype(np.int64)  # round half up
    hist = np.bincount(levels.ravel(), minlength=bins)
    cdf = np.cumsum(hist)
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    n = levels.size
    if n == cdf_min:
        return x.copy()
    mapped = np.floor((cdf - cdf_min) / (n - cdf_min) * (bins - 1) + 0.5)
    return (mapped[levels] / (bins - 1)).astype(np.float32)


def resize_bilinear(x, target: int):
    """Resize a 2-D image to target x target with half-pixel centers."""
    x = np.asarray(x, dtype=np.float32)
    h, w = x.shape
    if (h, w) == (target, target):
        return x.copy()
    i0, i1, t = _linear_resample_coeffs(h, target)
    x = x[i0, :] * (1 - t)[:, None] + x[i1, :] * t[:, None]
    j0, j1, s = _linear_resample_coeffs(w, target)
    x = x[:, j0] * (1 - s)[None, :] + x[:, j1] * s[None, :]
    return x.astype(np.float32)


def prepare_slice(hu, window: WindowSpec, size: int):
    """Model input from one axial HU slice: window, equalize, resize."""
    return resize_bilinear(histogram_equalize(window_hu(hu, window)), size)


def resize_nearest(x, target: int):
    """Nearest-neighbor resize; keeps label masks binary/integer."""
    x = np.asarray(x)
    h, w = x.shape
    sy = np.clip(np.floor((np.arange(target) + 0.5) * (h / target)).astype(int), 0, h - 1)
    sx = np.clip(np.floor((np.arange(target) + 0.5) * (w / target)).astype(int), 0, w - 1)
    return x[np.ix_(sy, sx)]


def _sample_at(image, sy, sx, interp):
    """Sample image at fractional (sy, sx) grids; out-of-bounds fill 0."""
    h, w = image.shape
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    if interp == "nearest":
        iy = np.clip(np.rint(sy).astype(int), 0, h - 1)
        ix = np.clip(np.rint(sx).astype(int), 0, w - 1)
        out = image[iy, ix]
        return np.where(inside, out, 0).astype(image.dtype)
    cy = np.clip(sy, 0, h - 1)
    cx = np.clip(sx, 0, w - 1)
    y0 = np.floor(cy).astype(int)
    x0 = np.floor(cx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = cy - y0
    tx = cx - x0
    out = (
        image[y0, x0] * (1 - ty) * (1 - tx)
        + image[y0, x1] * (1 - ty) * tx
        + image[y1, x0] * ty * (1 - tx)
        + image[y1, x1] * ty * tx
    )
    return np.where(inside, out, 0.0).astype(np.float32)


def _warp_pair(image, mask, sy, sx):
    return _sample_at(image, sy, sx, "bilinear"), _sample_at(mask, sy, sx, "nearest")


def rotate_pair(image, mask, angle_degrees: float):
    """Rotate about the image center; image bilinear, mask nearest, fill 0."""
    h, w = image.shape
    theta = math.radians(angle_degrees)
    c, s = math.cos(theta), math.sin(theta)
    # snap so that exact multiples of 90 degrees are pure index permutations
    if abs(c) < 1e-12:
        c = 0.0
    if abs(s) < 1e-12:
        s = 0.0
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    sy = c * yy - s * xx + cy
    sx = s * yy + c * xx + cx
    return _warp_pair(image, mask, sy, sx)


def random_rotate(image, mask, spec: AugmentSpec, rng: Rng):
    angle = rng.uniform(-spec.max_rotation_degrees, spec.max_rotation_degrees)
    return rotate_pair(image, mask, angle)


def elastic_deform(image, mask, spec: AugmentSpec, rng: Rng, scale: float = None):
    """Center zoom by s ~ U(1-z, 1+z) composed with a smooth random
    displacement field (Gaussian noise * alpha, blurred with sigma)."""
    h, w = image.shape
    if scale is None:
        z = spec.zoom_factor
        scale = rng.uniform(1.0 - z, 1.0 + z)
    if spec.elastic_alpha > 0:
        noise_y = rng.normal(size=(h, w))
        noise_x = rng.normal(size=(h, w))
        dy = gaussian_filter(noise_y, spec.elastic_sigma) * spec.elastic_alpha
        dx = gaussian_filter(noise_x, spec.elastic_sigma) * spec.elastic_alpha
    else:
        dy = dx = np.zeros((h, w))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                         indexing="ij")
    sy = (yy - cy) / scale + cy + dy
    sx = (xx - cx) / scale + cx + dx
    return _warp_pair(image, mask, sy, sx)


def augment_pair(image, mask, spec: AugmentSpec, rng: Rng):
    """Full augmentation: random rotation then elastic/zoom deformation."""
    image, mask = random_rotate(image, mask, spec, rng)
    return elastic_deform(image, mask, spec, rng)
