import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oms import (
    ValidationError,
    bf_ratio,
    detection,
    evaluate_sequence,
    iou,
    score_frame,
)
from oms.metrics import _counts

binary_masks = hnp.arrays(np.uint8, (12, 12), elements=st.integers(0, 1))


def block_mask(shape, y0, y1, x0, x1):
    m = np.zeros(shape, np.uint8)
    m[y0:y1, x0:x1] = 1
    return m


class TestIoU:
    def test_identity(self):
        m = block_mask((20, 20), 2, 8, 2, 8)
        assert iou(m, m) == 1.0

    def test_disjoint(self):
        a = block_mask((20, 20), 0, 5, 0, 5)
        b = block_mask((20, 20), 10, 15, 10, 15)
        assert iou(a, b) == 0.0

    def test_half_overlap_constructed(self):
        # gt = 10x10 block (100 px); pred = its left half, nothing outside.
        gt = block_mask((20, 20), 5, 15, 5, 15)
        pred = block_mask((20, 20), 5, 15, 5, 10)
        assert iou(pred, gt) == 0.5

    def test_both_empty_is_skip_sentinel(self):
        z = np.zeros((8, 8), np.uint8)
        assert math.isnan(iou(z, z))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            iou(np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8))

    @given(a=binary_masks, b=binary_masks)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        va = iou(a, b)
        vb = iou(b, a)
        if math.isnan(va):
            assert math.isnan(vb)
        else:
            assert va == vb and 0.0 <= va <= 1.0


class TestDetection:
    def test_perfect_prediction(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)
        assert detection(gt, gt) is True

    def test_forty_percent_coverage_fails(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)  # 100 px
        pred = block_mask((20, 20), 5, 15, 5, 9)  # 40 px, all inside gt
        assert detection(pred, gt) is False

    def test_outside_majority_fails(self):
        # pred covers 60 of 100 gt pixels but 70 pixels outside:
        # the 50% clause passes, the outside clause fails.
        gt = block_mask((20, 20), 0, 10, 0, 10)
        pred = np.zeros((20, 20), np.uint8)
        pred[0:10, 0:6] = 1  # 60 px inside
        pred[12:19, 0:10] = 1  # 70 px outside
        assert detection(pred, gt) is False
        s = score_frame(pred, gt)
        assert (s.inter_area, s.outside_inter_area, s.gt_area) == (60, 70, 100)

    def test_exactly_half_is_inclusive(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)
        pred = block_mask((20, 20), 5, 15, 5, 10)  # exactly 50 px inside
        assert detection(pred, gt) is True

    def test_empty_gt_rejected(self):
        with pytest.raises(ValidationError):
            detection(np.ones((4, 4), np.uint8), np.zeros((4, 4), np.uint8))

    def test_monotone_in_correct_pixels(self):
        gt = block_mask((20, 20), 0, 10, 0, 10)
        pred = block_mask((20, 20), 0, 10, 0, 5)
        assert detection(pred, gt) is True
        grown = pred.copy()
        grown[0:10, 5:8] = 1  # add correct pixels only
        assert detection(grown, gt) is True


class TestBfRatio:
    def test_all_inside(self):
        gt = block_mask((16, 16), 0, 8, 0, 8)
        frame = block_mask((16, 16), 2, 4, 2, 4)
        assert bf_ratio(frame, gt) == 0.0

    def test_balanced(self):
        gt = block_mask((16, 16), 0, 8, 0, 16)
        frame = np.zeros((16, 16), np.uint8)
        frame[4, 0:6] = 1   # 6 inside
        frame[12, 0:6] = 1  # 6 outside
        assert bf_ratio(frame, gt) == 1.0

    def test_empty_inside_is_inf(self):
        gt = block_mask((16, 16), 0, 8, 0, 8)
        frame = block_mask((16, 16), 10, 12, 10, 12)
        assert bf_ratio(frame, gt) == math.inf

    def test_linear_scan_oracle(self, rng):
        frame = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        gt = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        inside = outside = 0
        for y in range(32):
            for x in range(32):
                if frame[y, x]:
                    if gt[y, x]:
                        inside += 1
                    else:
                        outside += 1
        assert bf_ratio(frame, gt) == outside / inside


def test_ragged_nested_list_rejected():
    for metric in (iou, detection, score_frame, bf_ratio):
        with pytest.raises(ValidationError, match="frame 0 is not an array"):
            metric([[1, 0], [1]], [[1, 0], [1, 0]])
    with pytest.raises(ValidationError, match="frame 1 is not an array"):
        evaluate_sequence([[[1]], [[1, 0], [1]]], [[[1]], [[1, 0], [1, 0]]], [[[1]]] * 2)


@pytest.mark.parametrize("metric", [iou, detection, score_frame, bf_ratio])
def test_nested_lists_match_arrays(rng, metric):
    for _ in range(20):
        a, b = ((rng.random((6, 7)) < 0.5).astype(np.uint8) for _ in range(2))
        b[0, 0] = 1  # a non-empty ground truth, so every metric returns
        assert metric(a.tolist(), b.tolist()) == metric(a, b)
        assert metric(a.astype(bool).tolist(), b) == metric(a, b)


class TestEvaluateSequence:
    def test_perfect_predictions(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)
        dvs = np.ones((20, 20), np.uint8)
        report = evaluate_sequence([gt] * 10, [gt] * 10, [dvs] * 10)
        assert report.mean_iou == 100.0
        assert report.detection_rate == 100.0
        assert report.frames_evaluated == 10 and report.frames_skipped == 0

    def test_all_empty_predictions(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)
        dvs = np.ones((20, 20), np.uint8)
        empty = np.zeros((20, 20), np.uint8)
        report = evaluate_sequence([empty] * 5, [gt] * 5, [dvs] * 5)
        assert report.mean_iou == 0.0 and report.detection_rate == 0.0

    def test_empty_gt_frames_skipped(self):
        gt = block_mask((20, 20), 5, 15, 5, 15)
        empty = np.zeros((20, 20), np.uint8)
        dvs = np.ones((20, 20), np.uint8)
        report = evaluate_sequence([gt, gt], [gt, empty], [dvs, dvs])
        assert report.frames_evaluated == 1 and report.frames_skipped == 1

    def test_length_mismatch(self):
        z = np.zeros((8, 8), np.uint8)
        with pytest.raises(ValidationError):
            evaluate_sequence([z], [z, z], [z, z])

    @pytest.mark.parametrize("preds, gts, dvs", [
        ([np.zeros((8, 8))], [np.zeros((8, 9))], [np.zeros((8, 8))]),
        ([np.zeros((8, 8))] * 2, [np.zeros((8, 8)), np.zeros((9, 8))], [np.zeros((8, 8))] * 2),
        ([np.zeros(8)], [np.zeros(8)], [np.zeros(8)]),
        ([np.zeros((8, 8)), np.zeros((9, 9))],) * 3,
    ], ids=["across", "within", "not_2d", "frame_to_frame"])
    def test_shape_mismatch(self, preds, gts, dvs):
        with pytest.raises(ValidationError):
            evaluate_sequence(preds, gts, dvs)

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_inputs_unmodified(self, rng, dtype):
        seqs = [[(rng.random((16, 16)) < 0.4).astype(dtype) for _ in range(4)] for _ in range(3)]
        copies = [[f.copy() for f in seq] for seq in seqs]
        evaluate_sequence(*seqs, with_frames=True)
        for seq, copy in zip(seqs, copies):
            assert all(f.dtype == dtype and np.array_equal(f, c) for f, c in zip(seq, copy))

    def test_order_invariance(self, rng):
        preds = [(rng.random((16, 16)) < 0.3).astype(np.uint8) for _ in range(8)]
        gts = [(rng.random((16, 16)) < 0.3).astype(np.uint8) for _ in range(8)]
        dvs = [(rng.random((16, 16)) < 0.5).astype(np.uint8) for _ in range(8)]
        fwd = evaluate_sequence(preds, gts, dvs)
        rev = evaluate_sequence(preds[::-1], gts[::-1], dvs[::-1])
        assert fwd.detection_rate == rev.detection_rate
        assert fwd.frames_evaluated == rev.frames_evaluated
        assert fwd.mean_iou == pytest.approx(rev.mean_iou, abs=1e-12)

    def test_masking_protocol(self):
        # Prediction and GT are both ANDed with the DVS frame before scoring.
        gt = block_mask((20, 20), 0, 10, 0, 20)
        pred = np.ones((20, 20), np.uint8)
        dvs = block_mask((20, 20), 0, 20, 0, 10)
        report, scores = evaluate_sequence([pred], [gt], [dvs], with_frames=True)
        assert scores[0].gt_area == 100  # dvs AND gt
        # masked prediction covers the whole visible dvs half: IoU 100/200
        assert report.mean_iou == pytest.approx(50.0)


def _scan(a, b, within=None):
    """Pixel counts of two equal-shape binary masks by a per-pixel scan over
    the pixels set in `within` (default all): (a and b, a, b, a or b, a and not b)."""
    counts = [0] * 5
    keep = [1] * a.size if within is None else within.ravel().tolist()
    for x, y, k in zip(a.ravel().tolist(), b.ravel().tolist(), keep):
        x, y = bool(x and k), bool(y and k)
        for i, hit in enumerate((x and y, x, y, x or y, x and not y)):
            counts[i] += hit
    return counts


def _scan_score(pred, gt, within=None):
    """The FrameScore fields of a pair with non-empty gt, from _scan alone."""
    inter, _, gt_area, union, outside = _scan(pred, gt, within)
    return {"iou": inter / union, "detected": 2 * inter >= gt_area and inter > outside,
            "gt_area": gt_area, "inter_area": inter, "outside_inter_area": outside}


@st.composite
def binary_sequences(draw):
    """(preds, gts, dvs): three lists of 1-4 equal-shape binary frames of at
    most 12x12."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    stacks = [draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1))) for _ in range(3)]
    return tuple(list(s) for s in stacks)


class TestScanOracle:
    """evaluate_sequence and the per-frame metrics against a per-pixel scan
    that shares no code with oms.metrics."""

    @given(binary_sequences())
    @settings(max_examples=200, deadline=None)
    def test_sequence_matches_scan(self, seq):
        preds, gts, dvs = seq
        expected, brs = [], []
        for pred, gt, frame in zip(preds, gts, dvs):
            inside, _, _, _, outside = _scan(frame, gt)  # active pixels in and out of gt
            if inside == 0:  # the event-masked ground truth is empty: skipped
                expected.append(None)
                continue
            expected.append(_scan_score(pred, gt, within=frame))
            brs.append(outside / inside)
        scored = [e for e in expected if e is not None]
        n = len(scored)
        ious = [e["iou"] for e in scored]
        mean = sum(ious) / n if n else 0.0
        report, frames = evaluate_sequence(preds, gts, dvs, with_frames=True)
        assert [None if f is None else vars(f) for f in frames] == expected
        assert report.frames_evaluated == n
        assert report.frames_skipped == len(preds) - n
        if not n:
            assert (report.mean_iou, report.iou_std,
                    report.detection_rate, report.br_mean) == (0.0,) * 4
            return
        assert report.mean_iou == pytest.approx(100.0 * mean, rel=0, abs=1e-12)
        std = math.sqrt(sum((v - mean) ** 2 for v in ious) / n)
        assert report.iou_std == pytest.approx(100.0 * std, rel=0, abs=1e-12)
        assert report.detection_rate == 100.0 * sum(e["detected"] for e in scored) / n
        assert report.br_mean == pytest.approx(sum(brs) / n, rel=0, abs=1e-12)

    @given(binary_sequences())
    @settings(max_examples=200, deadline=None)
    def test_frame_metrics_match_scan(self, seq):
        for pred, gt, frame in zip(*seq):
            inter, _, gt_area, union, _ = _scan(pred, gt)
            if union:
                assert iou(pred, gt) == inter / union
            else:
                assert math.isnan(iou(pred, gt))
            if gt_area:
                expected = _scan_score(pred, gt)
                assert vars(score_frame(pred, gt)) == expected
                assert detection(pred, gt) is expected["detected"]
            else:
                for metric in (score_frame, detection):
                    with pytest.raises(ValidationError):
                        metric(pred, gt)
            inside, _, _, _, outside = _scan(frame, gt)
            assert bf_ratio(frame, gt) == (outside / inside if inside else math.inf)


# The masks of a binary frame in encodings where a value counts as 1 when
# Python reads it as true: gray levels, NaN, objects and nested lists.
ENCODINGS = {
    "uint8_0_255": lambda m, rng: m * np.uint8(255),
    "bool": lambda m, rng: m.astype(bool),
    "float_nan": lambda m, rng: np.where(m, rng.choice([np.nan, 0.5, -2.0], m.shape),
                                         rng.choice([0.0, -0.0], m.shape)),
    "object": lambda m, rng: np.where(m, rng.choice(np.array([1, "x", 2.5, True], object), m.shape),
                                      rng.choice(np.array([None, 0, "", False], object), m.shape)),
    "nested_list": lambda m, rng: (m * rng.choice([1, 7, 128], m.shape)).tolist(),
}


def assert_unchanged(inputs, copies):
    for a, b in zip(inputs, copies):
        if isinstance(b, list):
            assert a == b
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=b.dtype.kind == "f")


class TestEncodings:
    """_counts and evaluate_sequence read any nonzero value as 1 and write no input."""

    @given(binary_sequences(), st.sampled_from(sorted(ENCODINGS)), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_counts_match_scan(self, seq, encoding, seed):
        rng = np.random.default_rng(seed)
        encoded = tuple([ENCODINGS[encoding](f, rng) for f in frames] for frames in seq)
        copies = copy.deepcopy(encoded)
        expected = []
        for pred, gt, dvs in zip(*encoded):
            pred, gt, dvs = (np.asarray(a) for a in (pred, gt, dvs))
            inter, pred_area, gt_area, _, _ = _scan(pred, gt, within=dvs)
            expected.append([sum(map(bool, dvs.ravel().tolist())), inter, pred_area, gt_area])
        assert _counts(zip(*encoded)).T.tolist() == expected
        assert (evaluate_sequence(*encoded, with_frames=True)
                == evaluate_sequence(*seq, with_frames=True))
        for inputs, before in zip(encoded, copies):
            assert_unchanged(inputs, before)

    @pytest.mark.parametrize("pred", [
        np.array([[None, 1]], object), np.array([[0j, 1j]]), np.array([[0.0, np.nan]]),
        [[0, 255]], np.array([[False, True]]),
    ], ids=["object", "complex", "nan", "nested_list", "bool"])
    def test_one_frame_metrics(self, pred):
        before = copy.deepcopy(pred)
        assert iou(pred, [[1, 1]]) == 0.5
        assert vars(score_frame(pred, [[1, 1]])) == {
            "iou": 0.5, "detected": True, "gt_area": 2, "inter_area": 1, "outside_inter_area": 0}
        assert bf_ratio(pred, [[1, 0]]) == math.inf and bf_ratio(pred, [[0, 1]]) == 0.0
        assert_unchanged([pred], [before])
