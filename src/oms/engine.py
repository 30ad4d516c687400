"""Center-surround motion computation on binary frames.

The pipeline filters a binary frame with a small center kernel and a larger
surround kernel, takes the absolute difference of the two responses, and
thresholds it: a pixel spikes only where local activity differs from the
wider neighborhood. Globally coherent (ego-motion) activity drives both
responses equally and is suppressed.

Two filtering modes are provided:

* dense (default): both kernels slide at stride 1 over a zero-padded frame,
  so the score has the input resolution. Correlation is linear, so the score
  is |corr(F, D)| for the single difference kernel D = surround - center
  (`kernels.difference_kernel`), whose taps are grouped by exact value v_g
  once per kernel pair and frame width (7 values for 52 taps at the defaults).
  The frame is padded once into a flat uint8 buffer with rows of w + n - 1,
  where tap (dy, dx) is the offset dy * (w + n - 1) + dx, so each group's
  integer count c_g is a sum of contiguous slices. A tap whose mirror
  (n - 1 - dy, dx) is in its group is read with it, as one slice of the uint8
  sum of rows dy and n - 1 - dy (at the defaults, 4 row sums and 26 reads for
  52 taps). The float step casts each count to float64, scales it by v_g and
  adds in ascending value order. `oms_scores` runs it on the whole grid.
  `oms_frame` first sums the int16 score S = sum V_g c_g, V_g = round(v_g 2^k),
  k the largest with sum |V_g| |g| <= 32767, so no partial sum overflows. As
  0 <= c_g <= |g|, |corr - S 2^-k| <= sum |v_g - V_g 2^-k| |g| < E, whose
  slack covers float64 rounding: |S| > ceil((alpha + E) 2^k) spikes,
  |S| < floor((alpha - E) 2^k) does not, and only the band between runs the
  float step, on its gathered counts. When alpha < E the band starts at 0, so
  it drops the positions whose counts are all 0: they score exactly 0. Each
  mask is bitwise oms_scores > alpha.
* strided: the dense score's valid region (positions R .. H - R, R the
  larger radius, where both windows lie inside the frame) sampled every s_s
  positions, so cell (i, j) is dense position (R + s_s*i, R + s_s*j).
  `oms_frame` samples the dense mask there. Each valid-region pixel takes
  its nearest cell's spike, (y - R + s_s//2) // s_s clipped to the grid;
  pixels outside are 0. The paper's center stride
  s_c = s_s + r2 - r1 is not used: grids at two strides sample different
  input positions, so the spikes would land away from their stimulus.

`filter_frame` runs the same scorer with its one kernel as D (an empty
center), and its strided output is the same lattice of its dense output.

Frames must be binary (bool, or values in {0, 1}); anything else raises
ValidationError, because the score bound and the uint8 counts rely on it.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, ValidationError, _array, _check_number, _check_type
from .kernels import Kernel, difference_kernel, make_feathered_kernel

log = logging.getLogger("oms")

MODES = ("dense", "strided")
_check_frame = functools.partial(_array, ValidationError, "frame", ndim=2)


@dataclass(frozen=True)
class OmsParams:
    """Algorithm parameters. Defaults match the published EV-IMO setting:
    r1=2, r2=4, s_s=1, alpha=0.96, dense mode; sigma defaults to radius/2."""

    r1: int = 2
    r2: int = 4
    s_s: int = 1
    alpha: float = 0.96
    sigma_c: float | None = None
    sigma_s: float | None = None
    mode: str = "dense"

    def __post_init__(self):
        for name in ("r1", "r2", "s_s"):
            _check_number(ParameterError, name, getattr(self, name), True, 1, math.inf)
        if self.r1 >= self.r2:
            raise ParameterError(f"center radius must be < surround radius (r1={self.r1}, r2={self.r2})")
        _check_number(ParameterError, "alpha", self.alpha, False, 0, 1)
        if not (isinstance(self.mode, str) and self.mode in MODES):
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name, sigma in (("sigma_c", self.sigma_c), ("sigma_s", self.sigma_s)):
            if sigma is not None:
                _check_number(ParameterError, name, sigma, False, 0, math.inf, open=True)

    @property
    def center_sigma(self) -> float:
        return self.sigma_c if self.sigma_c is not None else self.r1 / 2.0

    @property
    def surround_sigma(self) -> float:
        return self.sigma_s if self.sigma_s is not None else self.r2 / 2.0

    def make_kernels(self) -> tuple[Kernel, Kernel]:
        return (
            make_feathered_kernel(self.r1, self.center_sigma),
            make_feathered_kernel(self.r2, self.surround_sigma),
        )


def _check_fits(n: int, shape: tuple[int, ...]) -> None:
    if n > min(shape):
        raise ValidationError(f"{n}x{n} kernel does not fit a {shape[0]}x{shape[1]} frame")


def _kernels_for(
    shape: tuple[int, ...], params: OmsParams,
    center: Kernel | None = None, surround: Kernel | None = None,
) -> tuple[Kernel, Kernel]:
    """The given kernels, or the params' kernels once the frame is known to
    hold the larger window (so an oversized radius allocates nothing). One
    kernel without the other raises ParameterError; params or kernels of
    another type raise TypeError."""
    _check_type("params", params, OmsParams)
    if center is None and surround is None:
        _check_fits(2 * max(params.r1, params.r2), shape)
        return params.make_kernels()
    if center is None or surround is None:
        raise ParameterError("give both the center and the surround kernel, or neither")
    return _check_type("center", center, Kernel), _check_type("surround", surround, Kernel)


def _check_binary_frame(frame: np.ndarray) -> np.ndarray:
    """A 2D frame whose values all lie in {0, 1}; one reduction on uint8."""
    frame = _check_frame(frame)
    if frame.dtype == np.bool_:
        return frame
    if frame.dtype == np.uint8:
        bad = frame.size > 0 and frame.max() > 1
    else:
        bad = ((frame != 0) & (frame != 1)).any()
    if bad:
        raise ValidationError("frame values must be 0 or 1")
    return frame


def filter_frame(
    frame: np.ndarray, kernel: Kernel, stride: int = 1, mode: str = "dense"
) -> np.ndarray:
    """Cross-correlate a binary frame with a kernel.

    Dense mode ignores `stride` (effective stride 1) and zero-pads so the
    output matches the input shape; output pixel (y, x) covers input rows
    y-r .. y+r-1 and the analogous columns (the even kernel is anchored at
    its continuous center, biased half a pixel up-left). Strided mode is a
    valid correlation with the given stride, output shape
    floor((H - 2r)/stride) + 1 by floor((W - 2r)/stride) + 1: the dense
    output's valid region sampled every `stride` positions. Both run the
    dense scorer with the kernel as D (an empty center).

    Returns float64; values lie in [0, 1] for a {0,1} frame because the
    kernel is non-negative and sums to one. The frame must be binary, as
    for oms_scores.
    """
    frame = _check_binary_frame(frame)
    _check_type("kernel", kernel, Kernel)
    if not (isinstance(mode, str) and mode in MODES):
        raise ParameterError(f"unknown filter mode {mode!r}")
    if mode == "strided":
        _check_number(ParameterError, "stride", stride, True, 1, math.inf)
    corr = _corr(frame, Kernel(1, 0.0, np.zeros((2, 2))), kernel)
    return corr if mode == "dense" else corr[_lattice(kernel.radius, stride, *frame.shape)]


def _lattice(r: int, s: int, h: int, w: int) -> tuple[slice, slice]:
    """The valid region of an h x w dense output, positions r .. h - r and
    r .. w - r, sampled every s positions: cell (i, j) is (r + s*i, r + s*j)."""
    return slice(r, h - r + 1, s), slice(r, w - r + 1, s)


@functools.lru_cache(maxsize=16)
def _tap_groups(r1: int, center: bytes, r2: int, surround: bytes, width: int):
    """(((value, V, count dtype), ...), k, E, reads): D's nonzero taps grouped
    by exact value, ascending; V = round(value * 2^k) as int16 for the largest
    k with sum(|V| * taps) <= 32767, and E bounds the error of the int16 score
    (module docstring). Each of reads is (a, b, ((group, offset), ...)): a tap
    (dy, dx) whose mirror (n - 1 - dy, dx) is in its group reads both at offset
    dx of the padded frame's rows at flat offsets a = dy * (width + n - 1) and
    b summed; a is None for the other taps, each read at its own offset
    dy * (width + n - 1) + dx. Cached per (kernels, frame width)."""
    d = difference_kernel(
        Kernel(r1, 0.0, np.frombuffer(center).reshape(2 * r1, 2 * r1)),
        Kernel(r2, 0.0, np.frombuffer(surround).reshape(2 * r2, 2 * r2)),
    )
    if not np.isfinite(d).all():
        raise ValidationError("kernel weights must be finite")
    ys, xs = np.nonzero(d if d.any() else np.ones_like(d))  # D == 0: one zero group
    values, group = np.unique(d[ys, xs], return_inverse=True)
    sizes = np.bincount(group)
    k = next(k for k in range(62, -64, -1) if np.abs(np.round(values * 2.0**k)) @ sizes <= 32767)
    ints = np.round(values * 2.0**k)
    err = np.abs(values - ints / 2.0**k) @ sizes + 1e-12 * (1 + np.abs(values) @ sizes)
    # each tap adds at most 1, so a count never exceeds its group's size
    groups = tuple((v, np.int16(q), np.min_scalar_type(size))
                   for v, q, size in zip(values.tolist(), ints.tolist(), sizes.tolist()))
    n, pw = d.shape[0], width + d.shape[0] - 1
    mirrored = d[n - 1 - ys, xs] == d[ys, xs]  # equal values: the mirror is a tap of the group
    plan = [(None, None, ~mirrored, ys * pw + xs)] + [
        (y * pw, (n - 1 - y) * pw, mirrored & (ys == y), xs) for y in range(n // 2)]
    reads = tuple((a, b, tuple(zip(group[at].tolist(), o[at].tolist())))
                  for a, b, at, o in plan if at.any())
    return groups, k, err, reads


def _tap_counts(frame: np.ndarray, center: Kernel, surround: Kernel):
    """(groups, k, E, counts): `_tap_groups` and each group's integer count
    on the flat (h, w + n - 1) grid, padding columns last."""
    h, w = frame.shape
    n = 2 * max(center.radius, surround.radius)
    _check_fits(n, frame.shape)
    groups, k, err, reads = _tap_groups(
        center.radius, np.asarray(center.weights, np.float64).tobytes(),
        surround.radius, np.asarray(surround.weights, np.float64).tobytes(), w,
    )
    r, pw = n // 2, w + n - 1
    # One spare row: taps of the cropped columns x >= w read past the last row.
    padded = np.zeros((h + n) * pw, np.uint8)
    padded.reshape(h + n, pw)[r:r + h, r:r + w] = frame
    size, span, counts = h * pw, h * pw + n - 1, [None] * len(groups)
    pair = np.empty(span, np.uint8)  # one mirrored row pair's sum at a time
    for a, b, taps in reads:
        src = padded if a is None else np.add(padded[a:a + span], padded[b:b + span], out=pair)
        for g, o in taps:
            if counts[g] is None:
                counts[g] = src[o:o + size].astype(groups[g][2])
            else:
                counts[g] += src[o:o + size]
    return groups, k, err, counts


def _float_corr(groups, counts, at=slice(None)) -> np.ndarray:
    """corr(F, D) in float64 at the flat positions `at` of the counts: each
    count cast, scaled by its value and added in ascending value order."""
    acc = counts[0][at].astype(np.float64)  # 0 + x is x up to the sign of a zero, which abs drops
    acc *= groups[0][0]
    scaled = np.empty_like(acc)
    for (value, *_), count in zip(groups[1:], counts[1:]):
        scaled[:] = count[at]
        scaled *= value
        acc += scaled
    return acc


def _corr(frame: np.ndarray, center: Kernel, surround: Kernel) -> np.ndarray:
    """corr(F, D) in float64 on the frame's grid."""
    groups, _, _, counts = _tap_counts(frame, center, surround)
    return _float_corr(groups, counts).reshape(frame.shape[0], -1)[:, :frame.shape[1]]


def oms_scores(
    frame: np.ndarray,
    params: OmsParams,
    center: Kernel | None = None,
    surround: Kernel | None = None,
) -> np.ndarray:
    """Per-position |center - surround| response before thresholding.

    The frame must be binary (bool, or values in {0, 1}); other values raise
    ValidationError. Dense mode returns a fresh full-resolution map; strided
    mode returns the dense score's valid region sampled every s_s positions
    (module docstring).
    """
    frame = _check_binary_frame(frame)
    center, surround = _kernels_for(frame.shape, params, center, surround)
    corr = _corr(frame, center, surround)
    if params.mode == "strided":
        corr = corr[_lattice(max(center.radius, surround.radius), params.s_s, *frame.shape)]
    return np.abs(corr)


def oms_frame(
    frame: np.ndarray,
    params: OmsParams,
    center: Kernel | None = None,
    surround: Kernel | None = None,
) -> np.ndarray:
    """Threshold the center-surround score into a {0,1} motion mask with the
    input frame's shape. Spikes use strict inequality: score > alpha. The
    frame must be binary, as for oms_scores. In strided mode each pixel of
    the valid region takes its nearest lattice cell and the rest is 0."""
    frame = _check_binary_frame(frame)
    center, surround = _kernels_for(frame.shape, params, center, surround)
    h, w = frame.shape
    groups, k, err, counts = _tap_counts(frame, center, surround)
    # The dense mask: |S| decides outside [lo, hi], the float step inside.
    score, scaled = counts[0].astype(np.int16), np.empty(counts[0].size, np.int16)
    score *= groups[0][1]
    for (_, q, _), count in zip(groups[1:], counts[1:]):  # k keeps every partial sum in int16
        scaled[:] = count
        scaled *= q
        score += scaled
    hi = min(math.ceil((params.alpha + err) * 2.0**k), 32767)
    lo = min(max(math.floor((params.alpha - err) * 2.0**k), 0), hi)
    mask = np.abs(score, out=score) > hi
    score -= lo  # lo <= |S| <= hi as one unsigned compare
    band = score.view(np.uint16) <= hi - lo
    if lo == 0:  # alpha < E: a position whose counts are all 0 scores 0 and cannot spike
        band &= functools.reduce(np.logical_or, counts[1:], counts[0] != 0)
    band = np.flatnonzero(band)
    mask[band] = np.abs(_float_corr(groups, counts, band)) > params.alpha
    mask = mask.view(np.uint8).reshape(h, -1)[:, :w]
    if params.mode == "dense":
        return mask.copy()
    r, s = max(center.radius, surround.radius), params.s_s
    cells = mask[_lattice(r, s, h, w)]
    rows = np.minimum((np.arange(h - 2 * r + 1) + s // 2) // s, cells.shape[0] - 1)
    cols = np.minimum((np.arange(w - 2 * r + 1) + s // 2) // s, cells.shape[1] - 1)
    full = np.zeros((h, w), np.uint8)
    full[_lattice(r, 1, h, w)] = cells[np.ix_(rows, cols)]
    return full


def oms_sequence(
    frames: Sequence[np.ndarray], params: OmsParams, threads: int = 1
) -> list[np.ndarray]:
    """Apply oms_frame to every frame in order, with kernels built once.

    All frames must share one shape, and are scored on the calling thread:
    `threads` must be an integer >= 1 and is otherwise ignored. A WARNING
    is logged when alpha is at least sum(max(D, 0)), the largest score any
    binary frame can reach in either mode, so no pixel can spike.
    """
    _check_number(ParameterError, "threads", threads, True, 1, math.inf)
    frames = [_check_frame(f) for f in (frames if np.iterable(frames) else [frames])]
    if not frames:
        return []
    shape = frames[0].shape
    for i, f in enumerate(frames):
        if f.shape != shape:
            raise ValidationError(f"frame {i} has shape {f.shape}, expected {shape}")
    return [mask for _, mask in _segment(frames, shape, params)]


def _segment(frames: Iterable[np.ndarray], shape: tuple[int, ...], params: OmsParams):
    """(frame, oms_frame(frame)) for each of frames, lazily; the kernels are built for
    shape, fitted to it and checked against alpha (oms_sequence's WARNING) by this call."""
    center, surround = _kernels_for(shape, params)
    d = difference_kernel(center, surround)
    bound = float(d[d > 0].sum())
    if params.alpha >= bound:
        log.warning("alpha %g >= %.6g, the largest score a binary frame can reach: "
                    "no pixel can spike", params.alpha, bound)
    return ((f, oms_frame(f, params, center, surround)) for f in frames)
