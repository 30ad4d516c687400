"""Feathered-circle Gaussian receptive-field kernels.

A kernel of radius r is a (2r x 2r) grid of non-negative weights: a
Gaussian evaluated at cell centers, cut to a circular support of radius r,
then normalized to sum to one. The even grid has no center pixel, so the
Gaussian origin is the continuous matrix center (r, r) and cells are
sampled at (i + 0.5, j + 0.5); this keeps exact 4-fold symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _array, _check_number, _check_type
from .events import _MAX_SIDE

# Largest radius: a 2r x 2r kernel wider than any frame (_MAX_SIDE) never fits.
_MAX_RADIUS = _MAX_SIDE // 2


@dataclass(frozen=True)
class Kernel:
    radius: int
    sigma: float
    weights: np.ndarray

    def __post_init__(self):
        _check_number(ParameterError, "kernel radius", self.radius, True, 1, _MAX_RADIUS)
        weights = _array(ParameterError, "kernel weights", self.weights)
        if weights.shape != (self.size, self.size) or weights.dtype.kind not in "biuf":
            raise ParameterError(f"radius-{self.radius} kernel weights must be {self.size}x"
                                 f"{self.size} numbers, got {weights.dtype} of shape {weights.shape}")

    @property
    def size(self) -> int:
        return 2 * self.radius


def make_feathered_kernel(radius: int, sigma: float) -> Kernel:
    """Build a normalized feathered-circle Gaussian kernel.

    Weight at cell (i, j) is exp(-d^2 / (2 sigma^2)) where d is the distance
    from the cell center (i + 0.5, j + 0.5) to the matrix center (radius,
    radius); cells with d > radius are zeroed, then the grid is divided by
    its sum. Raises ParameterError for a radius outside [1, _MAX_RADIUS], a
    sigma that is not finite and > 0, and when that sum is zero (the
    Gaussian underflows at every cell).
    """
    _check_number(ParameterError, "kernel radius", radius, True, 1, _MAX_RADIUS)
    _check_number(ParameterError, "kernel sigma", sigma, False, 0, math.inf, open=True)
    n = 2 * radius
    offsets = np.arange(n) + 0.5 - radius  # cell-center offsets from the matrix center
    dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
    d2 = dx * dx + dy * dy
    weights = np.exp(-d2 / (2.0 * sigma * sigma))
    weights[d2 > radius * radius] = 0.0
    total = weights.sum()
    if not (np.isfinite(total) and total > 0):
        raise ParameterError(f"kernel weights sum to {total} (radius {radius}, sigma {sigma!r})")
    weights /= total
    weights.setflags(write=False)
    return Kernel(radius=int(radius), sigma=float(sigma), weights=weights)


def difference_kernel(center: Kernel, surround: Kernel) -> np.ndarray:
    """Surround minus center on one 2R x 2R grid, R the larger radius.

    Dense correlation anchors a radius-r kernel so that output pixel (y, x)
    covers input rows y-r .. y+r-1 (and the analogous columns), so on the
    common grid each kernel sits at offset R - r. By linearity the dense
    center response minus the surround response is -corr(F, D), and the OMS
    score is |corr(F, D)|. Both kernels sum to one, so D sums to zero and no
    binary frame scores above sum(max(D, 0)).
    """
    r = max(center.radius, surround.radius)
    d = np.zeros((2 * r, 2 * r))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow: the scorer refuses D
        for kernel, sign in ((surround, 1.0), (center, -1.0)):
            o = r - kernel.radius
            d[o:o + kernel.size, o:o + kernel.size] += sign * kernel.weights
    return d


def kernel_to_text(kernel: Kernel) -> str:
    """Render weights as a row-major plain-text grid, 12 significant digits."""
    weights = _check_type("kernel", kernel, Kernel).weights
    return "\n".join(" ".join(f"{w:.12g}" for w in row) for row in weights)
