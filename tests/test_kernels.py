import math

import numpy as np
import pytest

from oms import Kernel, ParameterError, kernel_to_text, make_feathered_kernel
from oms.kernels import _MAX_RADIUS, difference_kernel

RADII = range(1, 17)
SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def reference_kernel(radius, sigma):
    """Independent direct evaluation of the kernel formula, pure python."""
    n = 2 * radius
    grid = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            d = math.hypot(i + 0.5 - radius, j + 0.5 - radius)
            if d <= radius:
                grid[i][j] = math.exp(-(d * d) / (2.0 * sigma * sigma))
    total = sum(sum(row) for row in grid)
    return np.array([[v / total for v in row] for row in grid])


def test_published_sizes_and_parameter_count():
    center = make_feathered_kernel(2, 1.0)
    surround = make_feathered_kernel(4, 2.0)
    assert center.weights.shape == (4, 4)
    assert surround.weights.shape == (8, 8)
    assert center.weights.size + surround.weights.size == 80


def test_matches_reference_evaluation():
    k = make_feathered_kernel(2, 1.0)
    assert np.max(np.abs(k.weights - reference_kernel(2, 1.0))) < 1e-12


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("sigma", SIGMAS)
def test_kernel_invariants(radius, sigma):
    w = make_feathered_kernel(radius, sigma).weights
    assert w.shape == (2 * radius, 2 * radius)
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= 0).all()

    offsets = np.arange(2 * radius) + 0.5 - radius
    dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
    d = np.hypot(dx, dy)
    assert (w[d > radius] == 0).all()
    # strict positivity where the Gaussian doesn't underflow to 0.0
    # (exp(-d^2/2s^2) flushes to zero past d^2 > ~1490*s^2)
    assert (w[d * d <= min(radius * radius, 1400 * sigma * sigma)] > 0).all()

    # 4-fold symmetry, exact
    assert np.array_equal(w, np.fliplr(w))
    assert np.array_equal(w, np.flipud(w))
    assert np.array_equal(w, np.rot90(w))

    # radial monotonicity: weight never increases with distance
    order = np.argsort(d, axis=None, kind="stable")
    assert (np.diff(w.flatten()[order]) <= 1e-15).all()


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        make_feathered_kernel(0, 1.0)
    with pytest.raises(ParameterError):
        make_feathered_kernel(2, 0.0)
    with pytest.raises(ParameterError):
        make_feathered_kernel(2, -1.0)


def test_radius_capped_before_allocating(monkeypatch):
    # No frame is wider than 65535 pixels, so no kernel wider than that can
    # fit one. The cap is checked before the grid is built: a radius of 10**6
    # would ask for a 2e6 x 2e6 float grid (29 TiB).
    def refuse(*args, **kwargs):
        raise AssertionError("kernel grid built")

    monkeypatch.setattr(np, "meshgrid", refuse)
    for radius in (_MAX_RADIUS + 1, 10**6):
        with pytest.raises(ParameterError, match=rf"kernel radius .*\[1, {_MAX_RADIUS}\]"):
            make_feathered_kernel(radius, 1.0)
        with pytest.raises(ParameterError, match=rf"kernel radius .*\[1, {_MAX_RADIUS}\]"):
            Kernel(radius, 1.0, np.ones((2, 2)))
    assert _MAX_RADIUS == 32767


@pytest.mark.parametrize("radius, weights", [
    (2, np.ones((3, 3)) / 9),
    ("2", np.ones((4, 4)) / 16),
    (2, np.ones(16) / 16),
    (0, np.ones((0, 0))),
    (2.0, np.ones((4, 4)) / 16),
    (True, np.ones((2, 2)) / 4),
], ids=["3x3_weights", "str_radius", "flat_weights", "zero_radius", "float_radius", "bool_radius"])
def test_kernel_checks_its_fields(radius, weights):
    # A Kernel holds an integer radius >= 1 and (2r, 2r) weights, so the
    # scorers never reshape or index a kernel of another shape.
    with pytest.raises(ParameterError):
        Kernel(radius, 1.0, weights)


@pytest.mark.parametrize("radius, sigma", [(4, 1e-3), (2, float("nan")), (2, float("inf"))])
def test_weights_that_cannot_be_normalized(radius, sigma):
    # The Gaussian underflows to 0 at every cell (or is NaN): dividing by
    # its sum would give NaN weights. An infinite sigma would give a flat
    # disk, which is no Gaussian.
    with pytest.raises(ParameterError):
        make_feathered_kernel(radius, sigma)


@pytest.mark.parametrize("r1, r2, sigma_c, sigma_s", [
    (2, 4, 1.0, 2.0), (1, 3, 0.5, 1.5), (3, 5, 0.7, 3.1),
])
def test_difference_kernel_matches_reference(r1, r2, sigma_c, sigma_s):
    center = make_feathered_kernel(r1, sigma_c)
    surround = make_feathered_kernel(r2, sigma_s)
    want = reference_kernel(r2, sigma_s)
    offset = r2 - r1
    want[offset:offset + 2 * r1, offset:offset + 2 * r1] -= reference_kernel(r1, sigma_c)
    for d in (difference_kernel(center, surround), -difference_kernel(surround, center)):
        assert np.max(np.abs(d - want)) < 1e-12
    assert abs(want.sum()) < 1e-12


def test_text_dump_round_trip():
    k = make_feathered_kernel(3, 1.5)
    text = kernel_to_text(k)
    parsed = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    assert parsed.shape == (6, 6)
    assert np.max(np.abs(parsed - k.weights)) < 1e-11
