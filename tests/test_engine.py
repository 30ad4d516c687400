import logging
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oms import engine
from oms import (
    Kernel,
    OmsParams,
    ParameterError,
    ValidationError,
    filter_frame,
    make_feathered_kernel,
    oms_frame,
    oms_scores,
    oms_sequence,
)
from oms.kernels import difference_kernel

from conftest import thread_starts


GOLDEN_DIR = Path(__file__).parent / "goldens"


def reference_filter(frame, weights, radius, stride, mode):
    """Naive four-nested-loop cross-correlation, kept independent of the
    package implementation (pure python lists)."""
    h, w = frame.shape
    n = 2 * radius
    fr = frame.tolist()
    kw = weights.tolist()
    if mode == "dense":
        out = [[0.0] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for ky in range(n):
                    yy = y - radius + ky
                    if yy < 0 or yy >= h:
                        continue
                    for kx in range(n):
                        xx = x - radius + kx
                        if 0 <= xx < w:
                            acc += kw[ky][kx] * fr[yy][xx]
                out[y][x] = acc
        return np.array(out)
    oh = (h - n) // stride + 1
    ow = (w - n) // stride + 1
    out = [[0.0] * ow for _ in range(oh)]
    for oy in range(oh):
        for ox in range(ow):
            acc = 0.0
            for ky in range(n):
                for kx in range(n):
                    acc += kw[ky][kx] * fr[oy * stride + ky][ox * stride + kx]
            out[oy][ox] = acc
    return np.array(out)


class TestOmsParams:
    def test_equal_radii_rejected_upstream(self):
        with pytest.raises(ParameterError):
            OmsParams(r1=3, r2=3)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("inf"), float("nan")])
    def test_sigma_finite_and_positive(self, sigma):
        # Checked before any kernel is built, so a run with no frames
        # cannot record it either.
        for name in ("sigma_c", "sigma_s"):
            with pytest.raises(ParameterError, match=name):
                OmsParams(**{name: sigma})

    def test_radius_checked_against_frame_before_kernels(self, monkeypatch):
        # r2 = 10**9 would ask for a 2e9 x 2e9 surround grid.
        def refuse(radius, sigma):
            raise AssertionError(f"kernel of radius {radius} built")

        monkeypatch.setattr(engine, "make_feathered_kernel", refuse)
        frame = np.zeros((32, 32), np.uint8)
        for mode in ("dense", "strided"):
            params = OmsParams(r2=10**9, mode=mode)
            for call in (oms_scores, oms_frame):
                with pytest.raises(ValidationError, match="does not fit"):
                    call(frame, params)
            with pytest.raises(ValidationError, match="does not fit"):
                oms_sequence([frame], params)


class TestFilterFrame:
    def test_zero_frame(self):
        k = make_feathered_kernel(2, 1.0)
        out = filter_frame(np.zeros((16, 16), np.uint8), k)
        assert out.shape == (16, 16) and not out.any()

    def test_saturated_frame_dense(self):
        k = make_feathered_kernel(2, 1.0)
        out = filter_frame(np.ones((16, 16), np.uint8), k)
        r = k.radius
        interior = out[r:-r, r:-r]
        assert np.allclose(interior, 1.0, atol=1e-12)
        assert (out[0, :] < 1.0).all() and (out[:, 0] < 1.0).all()

    def test_strided_shape(self):
        k = make_feathered_kernel(4, 2.0)
        for h, w, s in [(32, 32, 1), (33, 47, 3), (64, 20, 5)]:
            out = filter_frame(np.ones((h, w), np.uint8), k, stride=s, mode="strided")
            assert out.shape == ((h - 8) // s + 1, (w - 8) // s + 1)

    def test_matches_reference_strided(self, rng):
        k = make_feathered_kernel(4, 2.0)
        for _ in range(10):
            frame = (rng.random((32, 32)) < 0.4).astype(np.uint8)
            got = filter_frame(frame, k, stride=1, mode="strided")
            ref = reference_filter(frame, k.weights, 4, 1, "strided")
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_matches_reference_dense(self, rng):
        k = make_feathered_kernel(2, 1.0)
        for _ in range(10):
            frame = (rng.random((24, 24)) < 0.4).astype(np.uint8)
            got = filter_frame(frame, k, mode="dense")
            ref = reference_filter(frame, k.weights, 2, 1, "dense")
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_kernel_too_large(self):
        k = make_feathered_kernel(4, 2.0)
        with pytest.raises(ValidationError):
            filter_frame(np.zeros((6, 6), np.uint8), k)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError, match="^unknown filter mode 'sparse'$"):
            filter_frame(np.zeros((16, 16), np.uint8), make_feathered_kernel(2, 1.0), mode="sparse")

    def test_response_range(self, rng):
        for k in (make_feathered_kernel(2, 1.0), make_feathered_kernel(4, 2.0)):
            frame = (rng.random((32, 32)) < 0.5).astype(np.uint8)
            for mode, stride in (("dense", 1), ("strided", 2)):
                out = filter_frame(frame, k, stride=stride, mode=mode)
                assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12


class TestDenseScores:
    @pytest.mark.parametrize("r1, r2, sigma_c, sigma_s", [
        (2, 4, None, None),
        (1, 3, None, None),
        (3, 5, None, None),
        (2, 4, 0.7, 3.1),
    ])
    def test_matches_four_loop_oracle(self, rng, r1, r2, sigma_c, sigma_s):
        params = OmsParams(r1=r1, r2=r2, sigma_c=sigma_c, sigma_s=sigma_s)
        center, surround = params.make_kernels()
        for h, w in ((2 * r2 + 5, 2 * r2), (23, 31), (31, 2 * r2 + 3)):
            frame = (rng.random((h, w)) < 0.4).astype(np.uint8)
            want = np.abs(reference_filter(frame, center.weights, r1, 1, "dense")
                          - reference_filter(frame, surround.weights, r2, 1, "dense"))
            for f in (frame, frame.astype(bool)):
                got = oms_scores(f, params)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(ValidationError):
            oms_scores(np.zeros((7, 40), np.uint8), OmsParams())

    def test_large_tap_group_does_not_wrap(self):
        # A flat 20x20 surround puts 384 equal taps in one group, more than
        # a uint8 count can hold.
        params = OmsParams(r1=2, r2=10)
        center = make_feathered_kernel(2, 1.0)
        surround = Kernel(radius=10, sigma=1.0, weights=np.full((20, 20), 1 / 400))
        frame = np.ones((20, 24), np.uint8)
        want = np.abs(reference_filter(frame, center.weights, 2, 1, "dense")
                      - reference_filter(frame, surround.weights, 10, 1, "dense"))
        got = oms_scores(frame, params, center, surround)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("fixture", ["br1_data", "br3_data"])
    def test_no_fixture_score_near_thresholds(self, request, fixture):
        # A score within rounding of a threshold could flip a golden mask
        # when the summation order changes.
        frames, _ = request.getfixturevalue(fixture)
        params = OmsParams()
        center, surround = params.make_kernels()
        margin = min(
            np.min(np.abs(oms_scores(f, params, center, surround) - alpha))
            for f in frames
            for alpha in (0.05, 0.13, 0.3)
        )
        assert margin > 1e-9


def reference_scores(frame, center, surround):
    """Dense |center - surround| from the four-loop oracle."""
    return np.abs(reference_filter(frame, center.weights, center.radius, 1, "dense")
                  - reference_filter(frame, surround.weights, surround.radius, 1, "dense"))


class TestTapGroupCache:
    """The dense scorer caches D's tap groups per (kernels, frame width); no
    call may read groups built for another width or other weights."""

    def test_alternating_widths(self, rng):
        params = OmsParams()
        center, surround = params.make_kernels()
        for _ in range(3):
            for w in (20, 31):
                frame = (rng.random((12, w)) < 0.4).astype(np.uint8)
                want = reference_scores(frame, center, surround)
                assert np.max(np.abs(oms_scores(frame, params) - want)) < 1e-12

    def test_same_radii_other_weights(self, rng):
        pairs = [OmsParams().make_kernels(), OmsParams(sigma_c=0.7, sigma_s=3.1).make_kernels()]
        frame = (rng.random((14, 23)) < 0.4).astype(np.uint8)
        for _ in range(3):
            for center, surround in pairs:
                want = reference_scores(frame, center, surround)
                got = oms_scores(frame, OmsParams(), center, surround)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_height_equal_to_kernel(self, rng):
        params = OmsParams()
        center, surround = params.make_kernels()
        frame = (rng.random((8, 31)) < 0.4).astype(np.uint8)
        want = reference_scores(frame, center, surround)
        assert np.max(np.abs(oms_scores(frame, params) - want)) < 1e-12

    def test_cancelling_kernels_score_zero(self):
        center = make_feathered_kernel(3, 1.5)
        frame = np.ones((9, 10), np.uint8)
        scores = oms_scores(frame, OmsParams(), center, center)
        assert scores.shape == (9, 10) and not scores.any()

    def test_one_tap_group_below_e(self, rng):
        # alpha = 0 < E puts the band at 0, where a D of one distinct value
        # (one count array, holding counts above 1) must still mark every
        # nonzero count as a band position.
        center = make_feathered_kernel(3, 1.5)
        frame = np.ones((9, 10), np.uint8)
        assert not oms_frame(frame, OmsParams(alpha=0.0), center, center).any()
        quarter, half = (Kernel(1, 0.0, np.full((2, 2), v)) for v in (0.25, 0.5))
        frame = (rng.random((12, 15)) < 0.5).astype(np.uint8)
        mask = oms_frame(frame, OmsParams(alpha=0.0), quarter, half)
        assert np.array_equal(mask, oms_scores(frame, OmsParams(alpha=0.0), quarter, half) > 0)
        assert mask.any()

    def test_threaded_mixed_calls(self, rng):
        cases = []
        for params, w in [(OmsParams(alpha=0.13), 31), (OmsParams(alpha=0.13, sigma_c=0.7), 31),
                          (OmsParams(r1=1, r2=3, alpha=0.13), 20), (OmsParams(alpha=0.13), 23)]:
            center, surround = params.make_kernels()
            frames = [(rng.random((17, w)) < 0.4).astype(np.uint8) for _ in range(3)]
            cases.append((params, frames, [reference_scores(f, center, surround) for f in frames]))

        def score(case):
            params, frames, _ = case
            return [oms_scores(f, params) for f in frames], oms_sequence(frames, params, threads=2)

        engine._tap_groups.cache_clear()  # so that the first misses race
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(score, case) for case in cases * 4]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (params, _, want), (scores, masks) in zip(cases * 4, results):
            for got, mask, ref in zip(scores, masks, want):
                assert np.max(np.abs(got - ref)) < 1e-12
                assert np.array_equal(mask, ref > params.alpha)

    def test_difference_kernel_not_rebuilt_per_frame(self, monkeypatch, rng):
        calls = []

        def counting(center, surround):
            calls.append(1)
            return difference_kernel(center, surround)

        monkeypatch.setattr(engine, "difference_kernel", counting)
        frames = [(rng.random((24, 40)) < 0.3).astype(np.uint8) for _ in range(40)]
        params = OmsParams(alpha=0.13)
        oms_sequence(frames[:5], params)
        few = len(calls)
        calls.clear()
        oms_sequence(frames, params)
        assert len(calls) <= few


FIXED_PAIRS = [OmsParams(r1=2, r2=4), OmsParams(r1=1, r2=3),
               OmsParams(r1=3, r2=6, sigma_c=0.9, sigma_s=2.7)]


@st.composite
def scoring_cases(draw):
    """(params, two binary frames): a fixed kernel pair or a random one, on
    frames whose height and width go down to exactly n = 2 * r2."""
    if draw(st.booleans()):
        params = draw(st.sampled_from(FIXED_PAIRS))
    else:
        r1 = draw(st.integers(1, 3))
        r2 = draw(st.integers(r1 + 1, 5))
        sigma = st.one_of(st.none(), st.floats(0.3, 3.0))
        params = OmsParams(r1=r1, r2=r2, sigma_c=draw(sigma), sigma_s=draw(sigma))
    params = replace(params, alpha=draw(st.sampled_from([0.0, 0.05, 0.13, 0.3])))
    n = 2 * params.r2
    shape = (draw(st.integers(n, n + 5)), draw(st.integers(n, n + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]))
    frames = [rng.random(shape) < density for _ in range(2)]
    return params, frames


def nearest_cell_fill(cells, shape, r, s):
    """Pixel (y, x) of the valid region r .. H - r takes the cell nearest
    its lattice point, ((y - r + s // 2) // s clipped to the grid); the
    border is 0."""
    h, w = shape
    full = np.zeros(shape, np.uint8)
    for y in range(r, h - r + 1):
        for x in range(r, w - r + 1):
            i = min((y - r + s // 2) // s, cells.shape[0] - 1)
            j = min((x - r + s // 2) // s, cells.shape[1] - 1)
            full[y, x] = cells[i, j]
    return full


def reached_alphas(scores, data):
    """0.0, one score value the frame reaches and its float64 neighbours,
    all inside OmsParams' [0, 1]."""
    value = data.draw(st.sampled_from(sorted(set(scores.ravel().tolist()))))
    alphas = {0.0, value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)}
    return sorted(float(a) for a in alphas if 0.0 <= a <= 1.0)


class TestInt16Band:
    """oms_frame decides dense spikes on an int16 score S and runs the float
    step only on the band where S cannot decide; every mask must equal the
    float score thresholded, bit for bit, even at a reached score value. A
    strided mask must be the nearest-cell fill of the strided score
    thresholded."""

    @settings(max_examples=60, deadline=None)
    @given(scoring_cases(), st.data())
    def test_mask_is_float_threshold(self, case, data):
        params, frames = case
        center, surround = params.make_kernels()
        frame = frames[0]
        scores = oms_scores(frame, params, center, surround)
        again = oms_scores(frame, params, center, surround)
        assert np.max(np.abs(scores - reference_scores(frame, center, surround))) < 1e-12
        assert np.array_equal(again, scores) and not np.shares_memory(again, scores)
        for alpha in reached_alphas(scores, data):
            p = replace(params, alpha=alpha)
            mask = oms_frame(frame, p, center, surround)
            assert mask.dtype == np.uint8 and np.array_equal(mask, scores > alpha)
            seq = [oms_sequence(frames, p, threads=t) for t in (1, 2)]
            assert all(np.array_equal(a, b) for a, b in zip(*seq))
            assert np.array_equal(seq[0][0], mask)
            strided = replace(p, mode="strided", s_s=data.draw(st.integers(1, 3)))
            cells = oms_scores(frame, strided, center, surround) > alpha
            want = nearest_cell_fill(cells, frame.shape, max(params.r1, params.r2), strided.s_s)
            assert np.array_equal(oms_frame(frame, strided, center, surround), want)

    def test_large_tap_group_does_not_wrap(self):
        # A flat 20x20 surround puts 384 equal taps in one group: its count
        # needs uint16, and k must keep V * 384 and every partial sum of S
        # inside int16.
        params = OmsParams(r1=2, r2=10)
        center = make_feathered_kernel(2, 1.0)
        surround = Kernel(radius=10, sigma=1.0, weights=np.full((20, 20), 1 / 400))
        frame = np.ones((20, 24), np.uint8)
        want = reference_scores(frame, center, surround)
        scores = oms_scores(frame, params, center, surround)
        for alpha in np.unique(scores).tolist():
            mask = oms_frame(frame, replace(params, alpha=alpha), center, surround)
            assert np.array_equal(mask, scores > alpha)
        levels = np.unique(np.round(want, 9))
        between = (levels[:-1] + levels[1:]) / 2
        assert len(between) > 10 and np.min(np.abs(want[..., None] - between)) > 1e-9
        for alpha in between.tolist():
            mask = oms_frame(frame, replace(params, alpha=alpha), center, surround)
            assert np.array_equal(mask, want > alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        weights = np.full((8, 8), 1 / 64)
        weights[0, 0] = bad
        surround = Kernel(radius=4, sigma=2.0, weights=weights)
        center = make_feathered_kernel(2, 1.0)
        frame = np.ones((10, 12), np.uint8)
        for score in (oms_scores, oms_frame):
            with pytest.raises(ValidationError, match="finite"):
                score(frame, OmsParams(), center, surround)

    def test_float_step_runs_on_few_br1_positions(self, monkeypatch, br1_data):
        positions = []

        def recording(groups, counts, at=slice(None)):
            positions.append(len(at))
            return float_corr(groups, counts, at)

        float_corr = engine._float_corr
        monkeypatch.setattr(engine, "_float_corr", recording)
        params = OmsParams(alpha=0.13)
        frames, _ = br1_data
        masks = oms_sequence(frames, params)
        assert len(positions) == len(frames)
        assert 0 < sum(positions) and max(positions) < 0.01 * frames[0].size
        monkeypatch.undo()
        for frame, mask in zip(frames, masks):
            assert np.array_equal(mask, oms_scores(frame, params) > params.alpha)

    def test_float_step_skips_zero_count_positions_below_e(self, monkeypatch, br1_data):
        # At alpha = 0 < E the band starts at |S| = 0. A position whose tap
        # counts are all 0 scores exactly 0, so only the nonzero-count support
        # (about 15% of BR1 positions) may run the float step.
        positions = []

        def recording(groups, counts, at=slice(None)):
            positions.append(len(at))
            return float_corr(groups, counts, at)

        float_corr = engine._float_corr
        monkeypatch.setattr(engine, "_float_corr", recording)
        params = OmsParams(alpha=0.0)
        frames, _ = br1_data
        masks = oms_sequence(frames, params)
        monkeypatch.undo()
        center, surround = params.make_kernels()
        for frame, mask, n in zip(frames, masks, positions, strict=True):
            *_, counts = engine._tap_counts(frame, center, surround)
            support = np.count_nonzero(sum(c.astype(np.int64) for c in counts))
            assert n <= support < 0.2 * counts[0].size
            assert np.array_equal(mask, oms_scores(frame, params) > 0)


def per_tap_counts(frame, center, surround):
    """Each tap-value group's count as one shifted slice per tap, on the flat
    (h, w + n - 1) grid, in the dtype that holds the group's number of taps."""
    d = difference_kernel(center, surround)
    n, (h, w) = d.shape[0], frame.shape
    padded = np.zeros((h + n, w + n - 1), np.int64)
    padded[n // 2:n // 2 + h, n // 2:n // 2 + w] = frame
    flat, size = padded.ravel(), h * (w + n - 1)
    ys, xs = np.nonzero(d if d.any() else np.ones_like(d))
    counts = []
    for value in np.unique(d[ys, xs]):
        taps = [(y, x) for y, x in zip(ys, xs) if d[y, x] == value]
        total = sum(flat[y * (w + n - 1) + x:][:size] for y, x in taps)
        counts.append(total.astype(np.min_scalar_type(len(taps))))
    return counts


FLAT_SURROUND = Kernel(radius=10, sigma=1.0, weights=np.full((20, 20), 1 / 400))


@st.composite
def tap_cases(draw):
    """(center, surround, frame): kernels whose weights come from a small value
    set (so tap groups mix taps with and without a row mirror in the group),
    a feathered pair, or a feathered center in the flat 20x20 surround."""
    kind = draw(st.sampled_from(["asymmetric", "feathered", "flat"]))
    if kind == "asymmetric":
        r1, r2 = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        center, surround = (
            Kernel(r, 0.0, np.array(draw(st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05]),
                                                  min_size=4 * r * r, max_size=4 * r * r)))
                   .reshape(2 * r, 2 * r))
            for r in (r1, r2))
    elif kind == "feathered":
        r1 = draw(st.integers(1, 3))
        center = make_feathered_kernel(r1, draw(st.floats(0.3, 3.0)))
        surround = make_feathered_kernel(draw(st.integers(r1 + 1, 5)), draw(st.floats(0.3, 3.0)))
    else:
        center, surround = make_feathered_kernel(2, 1.0), FLAT_SURROUND
    n = 2 * max(center.radius, surround.radius)
    shape = (draw(st.integers(n, n + 4)), draw(st.integers(n, n + 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 0.9, 1.0]))
    return center, surround, (rng.random(shape) < density).astype(np.uint8)


class TestTapCounts:
    """`_tap_counts` reads a tap and its row mirror in one group as one slice
    of their rows' sum, and every other tap by itself; its counts must equal
    a per-tap sum for any kernel, mirror-symmetric or not."""

    @settings(max_examples=80, deadline=None)
    @given(tap_cases())
    @example((make_feathered_kernel(2, 1.0), FLAT_SURROUND, np.ones((20, 24), np.uint8)))
    def test_counts_match_per_tap_sum(self, case):
        center, surround, frame = case
        *_, counts = engine._tap_counts(frame, center, surround)
        want = per_tap_counts(frame, center, surround)
        assert counts.dtype == np.result_type(*want)  # one block: the largest group's type
        assert all(np.array_equal(c, t) for c, t in zip(counts, want, strict=True))
        params = OmsParams()
        scores = oms_scores(frame, params, center, surround)
        assert np.max(np.abs(scores - reference_scores(frame, center, surround))) < 1e-12
        level = float(np.sort(scores, axis=None)[scores.size // 2])  # a reached score
        alphas = {0.0, 0.13, level, np.nextafter(level, -np.inf), np.nextafter(level, np.inf)}
        for alpha in sorted(a for a in alphas if 0.0 <= a <= 1.0):
            mask = oms_frame(frame, replace(params, alpha=alpha), center, surround)
            assert np.array_equal(mask, scores > alpha)


def sequence_frames(draw, shape, radius):
    """A few binary frames of one shape: all 0, all 1, a random density, or
    random pixels only within `radius` of the border, where the padding counts."""
    frames = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["zeros", "ones", "random", "border"]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        frame = (rng.random(shape) < draw(st.floats(0.02, 0.95))).astype(np.uint8)
        if kind == "border":
            frame[radius:shape[0] - radius, radius:shape[1] - radius] = 0
        frames.append({"zeros": 0 * frame, "ones": 0 * frame + 1}.get(kind, frame))
    return frames


class TestScorerWorkspace:
    """One scorer, and one workspace, serves a whole run. Frame after frame
    through it, each mask must equal a fresh oms_frame and oms_scores > alpha;
    each count must equal a per-tap sum; the int16 score S must equal the
    int64 sum of V_g c_g, within E of corr * 2^k; and the float step must run
    on exactly the documented band."""

    @settings(max_examples=60, deadline=None)
    @given(tap_cases(), st.data())
    def test_reused_workspace_matches_fresh(self, case, data):
        center, surround, first = case
        shape, n = first.shape, 2 * max(center.radius, surround.radius)
        frames = [first] + sequence_frames(data.draw, shape, n // 2)
        d = difference_kernel(center, surround)
        values = np.unique(d[np.nonzero(d if d.any() else np.ones_like(d))])
        params = OmsParams(alpha=data.draw(st.sampled_from([0.0, 1e-4, 0.13, 0.5])))
        if data.draw(st.booleans()):  # alpha at a reached score, or next to it
            level = float(data.draw(st.sampled_from(np.unique(oms_scores(
                data.draw(st.sampled_from(frames)), params, center, surround)).tolist())))
            alpha = data.draw(st.sampled_from(
                [level, np.nextafter(level, -np.inf), np.nextafter(level, np.inf)]))
            params = replace(params, alpha=min(max(alpha, 0.0), 1.0))
        scorers, bands = [], []

        class Counted(engine._Scorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        def recording(groups, counts, at=slice(None)):
            bands.append(np.asarray(at))
            return float_corr(groups, counts, at)

        float_corr = engine._float_corr
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_Scorer", Counted)
            patch.setattr(engine, "_float_corr", recording)
            patch.setattr(engine, "_kernels_for", lambda *args: (center, surround))  # a run's kernels
            run = []
            for frame, mask in engine._segment(frames, shape, params):
                scorer = scorers[0]
                want = per_tap_counts(frame, center, surround)
                assert all(np.array_equal(c, t) for c, t in zip(scorer.counts, want, strict=True))
                ints, k, err = scorer.ints.astype(np.int64), scorer.k, scorer.err
                assert np.array_equal(ints, np.round(values * 2.0**k)) and np.abs(ints) @ [
                    np.count_nonzero(d == v) for v in values] <= 32767
                exact = ints @ np.array(want, np.int64)  # S in int64
                corr = sum(v * c.astype(np.float64) for v, c in zip(values.tolist(), want))
                assert np.all(np.abs(corr - exact * 2.0**-k) < err)
                hi = min(math.ceil((params.alpha + err) * 2.0**k), 32767)
                lo = min(max(math.floor((params.alpha - err) * 2.0**k), 0), hi)
                assert np.array_equal(scorer.score.astype(np.int64) + lo, np.abs(exact))
                band = (lo <= np.abs(exact)) & (np.abs(exact) <= hi)
                if lo == 0:
                    band &= np.any(want, axis=0)
                assert np.array_equal(bands[-1], np.flatnonzero(band))
                run.append(mask)
            assert len(scorers) == 1 and len(bands) == len(frames)  # one workspace for the run
            assert all(np.array_equal(a, b) for a, b in zip(run, oms_sequence(frames, params)))
        for frame, mask in zip(frames, run, strict=True):
            assert mask.dtype == np.uint8 and mask.shape == shape
            assert np.array_equal(mask, oms_frame(frame, params, center, surround))
            assert np.array_equal(mask, oms_scores(frame, params, center, surround) > params.alpha)


class TestBinaryFrameContract:
    @pytest.mark.parametrize("mode", ["dense", "strided"])
    @pytest.mark.parametrize("dtype, value", [
        (np.uint8, 7), (np.uint8, 37), (np.uint8, 255),
        (np.int64, -1), (np.float64, 0.5), (np.float64, np.nan),
    ])
    def test_non_binary_rejected(self, mode, dtype, value):
        frame = np.zeros((32, 32), dtype)
        frame[16, 16] = value
        params = OmsParams(mode=mode)
        with pytest.raises(ValidationError):
            filter_frame(frame, make_feathered_kernel(2, 1.0), stride=2, mode=mode)
        with pytest.raises(ValidationError):
            oms_scores(frame, params)
        with pytest.raises(ValidationError):
            oms_frame(frame, params)
        with pytest.raises(ValidationError):
            oms_sequence([frame], params)

    def test_sequence_checks_every_frame_before_scoring(self, monkeypatch):
        # Frame 2's values are refused before frame 0 is scored; a kernel that does
        # not fit is refused before the values are looked at.
        calls, score = [], engine._Scorer.__call__
        monkeypatch.setattr(engine._Scorer, "__call__",
                            lambda self, *args: calls.append(None) or score(self, *args))
        frames = [np.zeros((32, 32), np.uint8) for _ in range(3)]
        frames[2][16, 16] = 2
        with pytest.raises(ValidationError, match="frame values must be 0 or 1"):
            oms_sequence(frames, OmsParams())
        with pytest.raises(ValidationError, match="kernel does not fit"):
            oms_sequence(frames, OmsParams(r2=40))
        assert calls == []

    def test_binary_dtypes_agree(self, rng):
        frame = (rng.random((32, 40)) < 0.3).astype(np.uint8)
        want = oms_scores(frame, OmsParams())
        for dtype in (bool, np.int64, np.float64):
            assert np.array_equal(oms_scores(frame.astype(dtype), OmsParams()), want)


class TestOmsFrame:
    def test_zero_frame_zero_mask(self):
        mask = oms_frame(np.zeros((32, 32), np.uint8), OmsParams())
        assert not mask.any()

    def test_uniform_stimulus_suppressed(self):
        r2 = OmsParams().r2
        ones = np.ones((64, 64), np.uint8)
        assert not oms_frame(ones, OmsParams())[r2:-r2, r2:-r2].any()
        # alpha=0.96 cannot fire on any binary frame; at alpha=0.13 the
        # zero-padded edges fire, so the interior check has teeth.
        mask = oms_frame(ones, OmsParams(alpha=0.13))
        assert mask.any()
        assert not mask[r2:-r2, r2:-r2].any()

    def test_single_pixel_golden_scores(self):
        # Golden grid frozen from an independent direct-summation oracle
        # (tests/goldens/make_goldens.py).
        frame = np.zeros((32, 32), np.uint8)
        frame[16, 16] = 1
        golden = np.loadtxt(GOLDEN_DIR / "single_pixel_scores.txt")
        scores = oms_scores(frame, OmsParams())
        assert np.max(np.abs(scores - golden)) < 1e-12
        assert np.array_equal(oms_frame(frame, OmsParams()), (golden > 0.96).astype(np.uint8))

    def test_one_dimensional_frame_rejected(self):
        with pytest.raises(ValidationError, match=r"^frame must be 2D, got shape \(64,\)$"):
            oms_frame(np.zeros(64, np.uint8), OmsParams())

    def test_dense_shape_preserved(self, rng):
        frame = (rng.random((40, 56)) < 0.3).astype(np.uint8)
        assert oms_frame(frame, OmsParams()).shape == (40, 56)

    def test_strided_shape_preserved_after_upsampling(self, rng):
        frame = (rng.random((40, 56)) < 0.3).astype(np.uint8)
        assert oms_frame(frame, OmsParams(mode="strided")).shape == (40, 56)

    def test_strided_zero_common_grid_rejected(self):
        # A 7x7 frame cannot hold the 8x8 surround window anywhere.
        with pytest.raises(ValidationError):
            oms_frame(np.zeros((7, 7), np.uint8), OmsParams(mode="strided"))

    @pytest.mark.parametrize("mode", ["dense", "strided"])
    def test_threshold_monotonicity(self, rng, mode):
        frame = (rng.random((48, 48)) < 0.3).astype(np.uint8)
        prev = None
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.8):
            mask = oms_frame(frame, OmsParams(alpha=alpha, mode=mode))
            if prev is not None:
                assert not (mask & ~prev).any()  # spike set shrinks
            prev = mask


class TestStridedView:
    """Strided mode is the dense score's valid region sampled every s_s
    positions; it has no score of its own."""

    KERNEL_PAIRS = [(2, 4), (1, 3), (3, 5)]

    def test_lattice_equals_dense_bitwise(self, rng):
        for r1, r2 in self.KERNEL_PAIRS:
            for s in (1, 2, 3):
                params = OmsParams(r1=r1, r2=r2, s_s=s, mode="strided")
                for h, w in ((2 * r2, 2 * r2 + 7), (23, 31), (30, 2 * r2 + 1)):
                    frame = (rng.random((h, w)) < 0.4).astype(np.uint8)
                    dense = oms_scores(frame, OmsParams(r1=r1, r2=r2))
                    got = oms_scores(frame, params)
                    rows = np.arange(r2, h - r2 + 1, s)
                    cols = np.arange(r2, w - r2 + 1, s)
                    assert got.shape == (len(rows), len(cols))
                    assert np.array_equal(got, dense[np.ix_(rows, cols)])

    def test_unit_stride_mask_is_dense_mask_on_valid_region(self, rng):
        for r1, r2 in self.KERNEL_PAIRS:
            for _ in range(5):
                frame = (rng.random((29, 37)) < 0.3).astype(np.uint8)
                dense = oms_frame(frame, OmsParams(r1=r1, r2=r2, alpha=0.13))
                valid = np.zeros_like(dense)
                valid[r2:29 - r2 + 1, r2:37 - r2 + 1] = 1
                got = oms_frame(frame, OmsParams(r1=r1, r2=r2, alpha=0.13, mode="strided"))
                assert np.array_equal(got, dense * valid)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_spikes_centred_on_blob(self, s):
        # A 16x16 blob at rows 24-39, cols 30-45, centred at (31.5, 37.5).
        frame = np.zeros((64, 80), np.uint8)
        frame[24:40, 30:46] = 1
        mask = oms_frame(frame, OmsParams(alpha=0.13, s_s=s, mode="strided"))
        ys, xs = np.nonzero(mask)
        assert len(ys) > 0
        assert abs(ys.mean() - 31.5) <= s + 1 and abs(xs.mean() - 37.5) <= s + 1

    @pytest.mark.parametrize("s", [2, 3])
    def test_nearest_cell_upsampling(self, s):
        # Each spiking cell covers the pixels nearest to its lattice point.
        frame = np.zeros((64, 80), np.uint8)
        frame[24:40, 30:46] = 1
        params = OmsParams(alpha=0.13, s_s=s, mode="strided")
        cells = oms_scores(frame, params) > 0.13
        mask = oms_frame(frame, params)
        assert cells.any()
        r = params.r2
        assert np.array_equal(mask, nearest_cell_fill(cells, mask.shape, r, s))


class TestOmsSequence:
    def test_empty(self):
        assert oms_sequence([], OmsParams()) == []

    @pytest.mark.parametrize("frames", [5, None, np.zeros(4)], ids=["int", "none", "1d"])
    def test_not_a_sequence_of_frames(self, frames):
        with pytest.raises(ValidationError, match="frame must be 2D"):
            oms_sequence(frames, OmsParams())

    def test_purity(self, rng):
        frame = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        masks = oms_sequence([frame] * 3, OmsParams(alpha=0.2))
        assert all(np.array_equal(masks[0], m) for m in masks)

    def test_heterogeneous_geometry_rejected(self):
        frames = [np.zeros((32, 32), np.uint8), np.zeros((16, 16), np.uint8)]
        with pytest.raises(ValidationError, match="frame 1"):
            oms_sequence(frames, OmsParams())

    def test_parallel_matches_sequential(self, rng):
        frames = [(rng.random((48, 64)) < 0.3).astype(np.uint8) for _ in range(12)]
        params = OmsParams(alpha=0.15)
        seq = oms_sequence(frames, params, threads=1)
        par = oms_sequence(frames, params, threads=4)
        assert all(np.array_equal(a, b) for a, b in zip(seq, par))

    def test_starts_no_thread(self, rng):
        frames = [(rng.random((32, 32)) < 0.3).astype(np.uint8) for _ in range(3)]
        params = OmsParams(alpha=0.13)
        with thread_starts() as started:
            masks = oms_sequence(frames, params, threads=64)
        assert started == []
        assert all(np.array_equal(m, oms_frame(f, params)) for m, f in zip(masks, frames))

    @pytest.mark.parametrize("threads", ["x", 0, -1, 2.5, True, None])
    def test_threads_checked(self, threads):
        with pytest.raises(ParameterError, match="threads must be an integer"):
            oms_sequence([np.zeros((16, 16), np.uint8)], OmsParams(), threads=threads)

    def test_warns_when_alpha_cannot_fire(self, caplog):
        self.check_cannot_fire_warning(caplog, "dense")

    def test_warns_when_alpha_cannot_fire_strided(self, caplog):
        # Strided scores are dense scores, so the same bound holds.
        self.check_cannot_fire_warning(caplog, "strided")

    @staticmethod
    def check_cannot_fire_warning(caplog, mode):
        frames = [np.zeros((16, 16), np.uint8)]
        d = difference_kernel(*OmsParams().make_kernels())
        bound = float(d[d > 0].sum())

        def warnings_for(alpha):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="oms"):
                oms_sequence(frames, OmsParams(alpha=alpha, mode=mode))
            return [r for r in caplog.records
                    if r.name == "oms" and r.levelno == logging.WARNING]

        assert len(warnings_for(OmsParams().alpha)) == 1
        assert len(warnings_for(bound)) == 1
        assert warnings_for(np.nextafter(bound, 0.0)) == []
        assert warnings_for(0.13) == []


@pytest.mark.parametrize("params", [None, {"alpha": 0.2}, "dense"], ids=["none", "dict", "str"])
def test_foreign_params_raise_type_error(params):
    # A foreign object where OmsParams belongs is a programming error: TypeError.
    frame = np.zeros((16, 16), np.uint8)
    for call in (oms_frame, oms_scores, lambda f, p: oms_sequence([f], p)):
        with pytest.raises(TypeError, match="params must be an OmsParams"):
            call(frame, params)


@pytest.mark.parametrize("call", [oms_frame, oms_scores], ids=["oms_frame", "oms_scores"])
def test_lone_kernel_raises_parameter_error(call):
    # One kernel without the other used to be dropped, and both built from params.
    frame = np.zeros((16, 16), np.uint8)
    center, surround = OmsParams(r1=1, r2=3).make_kernels()
    for kernels in ((None, surround), (center, None)):
        with pytest.raises(ParameterError, match="both the center and the surround kernel"):
            call(frame, OmsParams(), *kernels)


@pytest.mark.parametrize("w", [1e22, 1e23, 1e100, 1e300])
def test_huge_finite_weights_score(w, rng):
    # Past sum |D| of about 3e23 the int16 score needs k < -63, down to about -1000 at
    # 1e300. The masks stay oms_scores > alpha, with no overflow warning on the way.
    center, surround = Kernel(2, 1.0, np.full((4, 4), w)), OmsParams().make_kernels()[1]
    frame = (rng.random((40, 48)) < 0.05).astype(np.uint8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.0, 0.13, 0.96):
            params = OmsParams(alpha=alpha)
            scores = oms_scores(frame, params, center, surround)
            assert np.array_equal(oms_frame(frame, params, center, surround), scores > alpha)
            assert 0 < np.count_nonzero(scores <= 0.5637) < scores.size  # the band is reached
        assert np.isfinite(filter_frame(frame, center)).all()


@pytest.mark.parametrize("c, s", [(np.inf, np.inf), (-1e308, 1e308)], ids=["inf-inf", "overflow"])
def test_non_finite_difference_is_only_a_validation_error(c, s):
    # D = surround - center is NaN (inf - inf) or overflows (1e308 + 1e308): the scorer
    # refuses it with ValidationError, and no RuntimeWarning comes before it.
    center, surround = Kernel(2, 1.0, np.full((4, 4), c)), Kernel(4, 1.0, np.full((8, 8), s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for score in (oms_frame, oms_scores):
            with pytest.raises(ValidationError, match="finite"):
                score(np.zeros((16, 16), np.uint8), OmsParams(), center, surround)
