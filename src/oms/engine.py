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
  One scorer (`_Scorer`) serves every entry point, and `oms run` builds one
  per run: its workspace holds the frame, padded once into a flat uint8
  buffer with rows of w + n - 1, where tap (dy, dx) is the offset
  dy * (w + n - 1) + dx, so each group's integer count c_g, a row of one
  (groups, N) block, is a sum of contiguous slices. A tap whose mirror
  (n - 1 - dy, dx) is in its group is read with it, as one slice of the uint8
  sum of rows dy and n - 1 - dy, and a count starts as one add of its first
  two reads (at the defaults, 4 row sums and 19 passes for 52 taps). The
  float step casts each count to float64, scales it by v_g and adds in
  ascending value order; `oms_scores` runs it on the whole grid. `oms_frame`
  first takes the int16 score S = sum V_g c_g in one einsum, V_g = round(v_g
  2^k), k the largest with sum |V_g| |g| <= 32767, so no partial sum
  overflows. As 0 <= c_g <= |g|, |corr - S 2^-k| <= sum |v_g - V_g 2^-k| |g|
  < E, whose slack covers float64 rounding: |S| > ceil((alpha + E) 2^k)
  spikes, |S| < floor((alpha - E) 2^k) does not, and only the band between
  runs the float step, on its counts gathered once. When alpha < E the band
  starts at 0, so it drops the positions whose counts are all 0: they score
  exactly 0. Each mask is bitwise oms_scores > alpha.
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
    """(values, V, k, E, reads, dtype): D's tap values, ascending, their int16 V and
    k, E (module docstring) and the smallest type that holds the largest group's
    count. Each of reads is (a, b, ((group, o, o2), ...)): flat offsets into the
    padded frame (a None), or into the sum of its rows at a = dy * (width + n - 1)
    and b, the mirror row's, where dx reads taps (dy, dx) and (n - 1 - dy, dx) of
    one group at once. A group's count starts as its first read o plus o2, its
    second from that source (None: 0); then o is None and o2 is added. Cached per
    (kernels, frame width)."""
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
    n, pw = d.shape[0], width + d.shape[0] - 1
    mirrored = d[n - 1 - ys, xs] == d[ys, xs]  # equal values: the mirror is a tap of the group
    plan = [(None, None, ~mirrored, ys * pw + xs)] + [
        (y * pw, (n - 1 - y) * pw, mirrored & (ys == y), xs) for y in range(n // 2)]
    reads, started = [], set()
    for a, b, at, o in plan:
        taps = {g: o[at][group[at] == g].tolist() for g in dict.fromkeys(group[at].tolist())}
        ops = [(g, *(offs + [None])[:2]) for g, offs in taps.items() if g not in started]
        ops += [(g, None, x) for g, offs in taps.items() for x in offs[2 * (g not in started):]]
        started.update(taps)
        reads += [(a, b, tuple(ops))] if ops else []
    dtype = np.min_scalar_type(int(sizes.max()))  # a tap adds at most 1 to its group's count
    return tuple(values.tolist()), ints.astype(np.int16), k, err, tuple(reads), dtype


class _Scorer:
    """The dense scorer of one frame shape: `_tap_groups`' plan and a workspace
    allocated by this call. It holds the padded frame, whose zero halo is
    written once; the row-pair sum, which then holds the band and the mask; the
    (groups, N) block of counts on the flat (h, w + n - 1) grid, padding
    columns last; and the int16 score. MemoryError names the geometry and the
    bytes."""

    def __init__(self, shape: tuple[int, ...], center: Kernel, surround: Kernel):
        (h, w), n = shape, 2 * max(center.radius, surround.radius)
        _check_fits(n, shape)
        self.values, self.ints, self.k, self.err, self.reads, dtype = _tap_groups(
            center.radius, np.asarray(center.weights, np.float64).tobytes(),
            surround.radius, np.asarray(surround.weights, np.float64).tobytes(), w,
        )
        self.shape, self.r, pw = shape, n // 2, w + n - 1
        self.size, self.span = h * pw, h * pw + n - 1
        nbytes = (h + n) * pw + self.span + self.size * (2 + len(self.values) * dtype.itemsize)
        try:  # one spare row: taps of the cropped columns x >= w read past the last row
            self.padded, self.pair = np.zeros((h + n) * pw, np.uint8), np.empty(self.span, np.uint8)
            self.counts = np.empty((len(self.values), self.size), dtype)
            self.score = np.empty(self.size, np.int16)
        except MemoryError as exc:
            raise MemoryError(f"the scorer's workspace for {w}x{h} frames ({nbytes} bytes) "
                              f"cannot be allocated: {exc}") from None
        self.interior = self.padded.reshape(h + n, pw)[self.r:self.r + h, self.r:self.r + w]

    def count(self, frame: np.ndarray) -> np.ndarray:
        """The workspace's block of frame's counts, one row per group."""
        self.interior[...] = frame
        padded, counts, size, span = self.padded, self.counts, self.size, self.span
        for a, b, taps in self.reads:
            src = padded if a is None else np.add(padded[a:a + span], padded[b:b + span], out=self.pair)
            for g, o, o2 in taps:  # row g = read o (None: row g) + read o2 (None: 0)
                np.add(counts[g] if o is None else src[o:o + size],
                       0 if o2 is None else src[o2:o2 + size], out=counts[g])
        return counts

    def __call__(self, frame: np.ndarray, params: OmsParams) -> np.ndarray:
        """oms_frame of a checked binary frame of this shape, in a fresh array."""
        (h, w), counts = self.shape, self.count(frame)
        # The dense mask: |S| decides outside [lo, hi], the float step inside. The cast
        # is exact: k keeps each partial sum, and each c_g whose V_g != 0, in int16.
        score = np.einsum("g,gn->n", self.ints, counts, out=self.score, dtype=np.int16,
                          casting="unsafe")
        hi = min(math.ceil((params.alpha + self.err) * 2.0**self.k), 32767)
        lo = min(max(math.floor((params.alpha - self.err) * 2.0**self.k), 0), hi)
        score = np.subtract(np.abs(score, out=score), lo, out=score)  # |S| - lo, in int16
        bits = self.pair[:self.size].view(bool)  # the row-pair sum is spent: the band, then the mask
        band = np.less_equal(score.view(np.uint16), hi - lo, out=bits)  # lo <= |S| <= hi
        if lo == 0:  # alpha < E: a position whose counts are all 0 scores 0 and cannot spike
            band &= counts.any(axis=0)
        band = np.flatnonzero(band)
        mask = np.greater(score, hi - lo, out=bits)  # |S| > hi
        mask[band] = np.abs(_float_corr(self.values, counts, band)) > params.alpha
        mask = mask.view(np.uint8).reshape(h, -1)[:, :w]
        if params.mode == "dense":
            return mask.copy()
        r, s = self.r, params.s_s
        cells = mask[_lattice(r, s, h, w)]
        rows = np.minimum((np.arange(h - 2 * r + 1) + s // 2) // s, cells.shape[0] - 1)
        cols = np.minimum((np.arange(w - 2 * r + 1) + s // 2) // s, cells.shape[1] - 1)
        full = np.zeros((h, w), np.uint8)
        full[_lattice(r, 1, h, w)] = cells[np.ix_(rows, cols)]
        return full


# The scorer of each live `_segment` run, by its kernels' ids and frame shape: the run
# scores each frame in one oms_frame call, which takes the run's workspace from here.
_RUNS: dict[tuple, _Scorer] = {}


def _tap_counts(frame: np.ndarray, center: Kernel, surround: Kernel):
    """(values, k, E, counts): a one-frame `_Scorer`'s plan and block of counts."""
    scorer = _Scorer(frame.shape, center, surround)
    return scorer.values, scorer.k, scorer.err, scorer.count(frame)


def _float_corr(values, counts, at=slice(None)) -> np.ndarray:
    """corr(F, D) in float64 at the flat positions `at` of the counts, gathered
    once: each count cast, scaled by its value and added in ascending value order."""
    counts = counts[:, at]
    acc = counts[0].astype(np.float64)  # 0 + x is x up to the sign of a zero, which abs drops
    acc *= values[0]
    scaled = np.empty_like(acc)
    for value, count in zip(values[1:], counts[1:]):
        scaled[:] = count
        scaled *= value
        acc += scaled
    return acc


def _corr(frame: np.ndarray, center: Kernel, surround: Kernel) -> np.ndarray:
    """corr(F, D) in float64 on the frame's grid."""
    values, _, _, counts = _tap_counts(frame, center, surround)
    return _float_corr(values, counts).reshape(frame.shape[0], -1)[:, :frame.shape[1]]


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
    scorer = _RUNS.get((id(center), id(surround), frame.shape))  # None outside a run
    return (scorer or _Scorer(frame.shape, center, surround))(frame, params)


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
    shape, fitted to it and checked against alpha (oms_sequence's WARNING), and the
    scorer's workspace is allocated, by this call."""
    center, surround = _kernels_for(shape, params)
    d = difference_kernel(center, surround)
    bound = float(d[d > 0].sum())
    if params.alpha >= bound:
        log.warning("alpha %g >= %.6g, the largest score a binary frame can reach: "
                    "no pixel can spike", params.alpha, bound)
    scorer, key = _Scorer(shape, center, surround), (id(center), id(surround), tuple(shape))

    def scored():
        _RUNS[key] = scorer
        try:
            yield from ((f, oms_frame(f, params, center, surround)) for f in frames)
        finally:
            del _RUNS[key]

    return scored()
