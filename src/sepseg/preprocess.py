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

from .autograd import Rng

HISTOGRAM_BINS = 256
MAX_ROTATION_DEGREES = 180.0
ZOOM_FACTOR = 0.2  # scale drawn uniformly from [1 - z, 1 + z]
ELASTIC_ALPHA = 10.0  # displacement strength, pixels
ELASTIC_SIGMA = 4.0  # displacement smoothness, pixels


@dataclass
class WindowSpec:
    low: float = -100.0
    high: float = 200.0

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"window bounds must be finite, got {self.low} and {self.high}")
        if not self.low < self.high:
            raise ValueError(f"window low {self.low} must be below high {self.high}")



def window_hu(x, w: WindowSpec):
    """Clamp to [low, high] HU and map affinely to [0, 1]."""
    x = np.asarray(x, dtype=np.float32)
    return (np.clip(x, w.low, w.high) - w.low) / (w.high - w.low)


def histogram_equalize(x):
    """CDF-based contrast equalization on a [0, 1] image.

    Quantizes to ``HISTOGRAM_BINS`` levels and maps level v to
    (cdf(v) - cdf_min) / (N - cdf_min), rescaled back to [0, 1]. The
    mapping is monotone non-decreasing; a constant image is returned
    unchanged (degenerate cdf).
    """
    x = np.asarray(x, dtype=np.float32)
    levels = np.floor(x * (HISTOGRAM_BINS - 1) + 0.5).astype(np.int64)  # round half up
    hist = np.bincount(levels.ravel(), minlength=HISTOGRAM_BINS)
    cdf = np.cumsum(hist)
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    n = levels.size
    if n == cdf_min:
        return x.copy()
    mapped = np.floor((cdf - cdf_min) / (n - cdf_min) * (HISTOGRAM_BINS - 1) + 0.5)
    return (mapped[levels] / (HISTOGRAM_BINS - 1)).astype(np.float32)


def _linear_resample_coeffs(src, dst):
    """Half-pixel-center source indices and weights for 1-D linear resize."""
    s = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    s = np.clip(s, 0, src - 1)
    i0 = np.floor(s).astype(np.intp)
    t = s - i0
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, t


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


def _warp_pair(image, mask, sy, sx):
    """Sample ``image`` bilinearly and ``mask`` at the nearest pixel at the
    fractional grids (sy, sx); a point outside the image reads 0 in both.
    The image comes back float32, the mask in its own dtype."""
    h, w = image.shape
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    iy = np.clip(np.rint(sy).astype(int), 0, h - 1)
    ix = np.clip(np.rint(sx).astype(int), 0, w - 1)
    warped_mask = np.where(inside, mask[iy, ix], 0).astype(mask.dtype)
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
    return np.where(inside, out, 0.0).astype(np.float32), warped_mask


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


def gaussian_filter(x, sigma: float):
    """Gaussian blur of a 2-D array in float64, truncated at 4 sigma.

    The kernel is exp(-k^2 / (2 sigma^2)) over k = -r..r, r = int(4 sigma
    + 0.5), divided by its sum. Each axis in turn (0, then 1) is mirrored at
    the border with the edge sample repeated (d c b a | a b c d | d c b a)
    and summed in a fixed order: the center product, then the pair sums
    (x[i-j] + x[i+j]) * w[r-j] for j = r down to 1. This is the order of
    ndimage's ``gaussian_filter`` in "reflect" mode, whose bits the tests
    check this against; training's augmentation depends on them. A sigma of
    at most 1e-15 returns the input unchanged, as ndimage skips such an axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if sigma <= 1e-15:
        return x.copy()
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k**2)
    w = w / w.sum()
    for _ in range(2):  # filter axis 0, then transpose so axis 1 comes next
        n = x.shape[0]
        i = np.arange(-r, n + r) % (2 * n)
        xp = x[np.minimum(i, 2 * n - 1 - i)]
        out, tmp = xp[r : r + n] * w[r], np.empty_like(x)
        for j in range(r, 0, -1):
            np.add(xp[r - j : r - j + n], xp[r + j : r + j + n], out=tmp)
            out += np.multiply(tmp, w[r - j], out=tmp)
        x = np.ascontiguousarray(out.T)
    return x


def elastic_deform(image, mask, rng: Rng):
    """Center zoom by s ~ U(1-z, 1+z) composed with a smooth random
    displacement field (Gaussian noise * alpha, blurred with sigma)."""
    h, w = image.shape
    scale = rng.uniform(1.0 - ZOOM_FACTOR, 1.0 + ZOOM_FACTOR)
    noise_y = rng.normal(size=(h, w))
    noise_x = rng.normal(size=(h, w))
    dy = gaussian_filter(noise_y, ELASTIC_SIGMA) * ELASTIC_ALPHA
    dx = gaussian_filter(noise_x, ELASTIC_SIGMA) * ELASTIC_ALPHA
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                         indexing="ij")
    sy = (yy - cy) / scale + cy + dy
    sx = (xx - cx) / scale + cx + dx
    return _warp_pair(image, mask, sy, sx)


def augment_pair(image, mask, rng: Rng):
    """Full augmentation: a rotation by an angle drawn uniformly within
    ``MAX_ROTATION_DEGREES``, then elastic/zoom deformation."""
    angle = rng.uniform(-MAX_ROTATION_DEGREES, MAX_ROTATION_DEGREES)
    image, mask = rotate_pair(image, mask, angle)
    return elastic_deform(image, mask, rng)
