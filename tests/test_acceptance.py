"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line.

Criterion 7 (end-to-end regression at the default threshold alpha=0.96)
checks the promise the method makes at that threshold. In dense mode the
center window sits at offset r2 - r1 inside the surround window, so by
linearity the score is |sum(F * D)| with D = S - C_up (the surround minus
the center embedded at that offset). For a binary frame F the sum lies in
[-sum(max(-D, 0)), sum(max(D, 0))], and both kernels sum to one, so
sum(D) = 0 and both ends equal B = sum(max(D, 0)) = 0.56367 for the
defaults. B < 0.96, so the default threshold can never fire: the frozen
golden pins the all-zero report, every BR1 score is checked against B, and
every mask must be empty. Segmentation quality is checked at the working
point alpha=0.13 (test_working_point_regression).
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oms import (
    OmsParams,
    detection,
    evaluate_sequence,
    filter_frame,
    iou,
    make_feathered_kernel,
    oms_frame,
    oms_scores,
    oms_sequence,
)
from test_engine import reference_filter
from test_kernels import reference_kernel

GOLDEN_DIR = Path(__file__).parent / "goldens"


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def dense_score_bound(params):
    """B = sum(max(D, 0)), D = surround - center embedded at offset r2 - r1,
    from the pure-python kernel oracle: no binary frame scores above B in
    dense mode (see the module docstring)."""
    diff = reference_kernel(params.r2, params.surround_sigma)
    offset, n = params.r2 - params.r1, 2 * params.r1
    diff[offset : offset + n, offset : offset + n] -= reference_kernel(
        params.r1, params.center_sigma
    )
    return float(np.maximum(diff, 0.0).sum())


def test_01_parameter_count():
    with criterion("parameter count: 4*4 + 8*8 = 80 non-learnable weights"):
        params = OmsParams()
        center, surround = params.make_kernels()
        assert center.weights.size == 16
        assert surround.weights.size == 64
        assert center.weights.size + surround.weights.size == 80


def test_02_convolution_oracle_equivalence():
    with criterion("optimized filtering equals four-loop reference (1e-12)"):
        rng = np.random.default_rng(2024)
        center = make_feathered_kernel(2, 1.0)
        surround = make_feathered_kernel(4, 2.0)
        for _ in range(100):
            frame = (rng.random((32, 32)) < 0.5).astype(np.uint8)
            for kernel, stride in ((center, 3), (surround, 1)):
                for mode in ("dense", "strided"):
                    got = filter_frame(frame, kernel, stride=stride, mode=mode)
                    want = reference_filter(frame, kernel.weights, kernel.radius,
                                            stride, mode)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) < 1e-12


def test_03_kernel_property_grid():
    with criterion("kernel invariants over radius 1..16 x six sigmas"):
        for radius in range(1, 17):
            offsets = np.arange(2 * radius) + 0.5 - radius
            d2 = offsets[:, None] ** 2 + offsets[None, :] ** 2
            order = np.argsort(d2.ravel())
            for sigma in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                w = make_feathered_kernel(radius, sigma).weights
                assert abs(w.sum() - 1.0) <= 1e-9
                assert (w >= 0.0).all()
                assert (w[d2 > radius * radius] == 0.0).all()
                assert np.array_equal(w, w[::-1]) and np.array_equal(w, w[:, ::-1])
                assert np.array_equal(w, w.T)
                radial = w.ravel()[order]
                assert (np.diff(radial) <= 1e-15).all()


def test_04_uniform_stimulus_suppression():
    with criterion("uniform frames produce no interior spikes "
                   "(defaults and alpha=0.13)"):
        params = OmsParams()
        r2 = params.r2
        uniform = np.ones((64, 64), np.uint8)
        assert not oms_frame(uniform, params)[r2:-r2, r2:-r2].any()
        assert not oms_frame(np.zeros((64, 64), np.uint8), params).any()
        # The default alpha cannot fire anywhere; at the reachable alpha=0.13
        # the zero-padded edges fire and the interior must stay silent.
        ones = oms_frame(uniform, OmsParams(alpha=0.13))
        assert ones.any()
        assert not ones[r2:-r2, r2:-r2].any()


def test_05_threshold_monotonicity():
    with criterion("spike sets nest as the threshold rises (0.05/0.13/0.3)"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            frame = (rng.random((48, 48)) < 0.3).astype(np.uint8)
            low = oms_frame(frame, OmsParams(alpha=0.05))
            mid = oms_frame(frame, OmsParams(alpha=0.13))
            high = oms_frame(frame, OmsParams(alpha=0.3))
            assert low.any()
            assert not (mid & ~low).any()
            assert not (high & ~mid).any()


def test_06_metric_unit_suite():
    with criterion("counting cases for iou and detection reproduce exactly"):
        gt = np.zeros((20, 20), np.uint8)
        gt[5:15, 5:15] = 1  # 100 px
        half = np.zeros((20, 20), np.uint8)
        half[5:15, 5:10] = 1  # left half, nothing outside
        assert iou(half, gt) == 0.5
        assert detection(half, gt) is True  # exactly 50% is inclusive

        gt2 = np.zeros((20, 20), np.uint8)
        gt2[0:10, 0:10] = 1
        pred = np.zeros((20, 20), np.uint8)
        pred[0:10, 0:6] = 1    # 60 px inside gt2
        pred[12:19, 0:10] = 1  # 70 px outside
        assert detection(pred, gt2) is False


def test_07_end_to_end_defaults(br1_data):
    with criterion("end-to-end synthetic regression at defaults (alpha=0.96): "
                   "golden report, scores <= B = 0.5637 < alpha, empty masks"):
        frames, gts = br1_data
        params = OmsParams()
        preds = oms_sequence(frames, params)
        report = evaluate_sequence(preds, gts, frames)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        golden = GOLDEN_DIR / "e2e_defaults_report.json"
        assert text == golden.read_text(), "report drifted from frozen golden"
        bound = dense_score_bound(params)
        assert bound < params.alpha
        for frame in frames:
            assert oms_scores(frame, params).max() <= bound + 1e-12
        assert not any(pred.any() for pred in preds)


def test_working_point_regression(br1_data):
    """Supplementary (not a numbered criterion): the same pipeline at a
    threshold inside the achievable score range segments the moving object,
    frozen bitwise as a golden report."""
    frames, gts = br1_data
    preds = oms_sequence(frames, OmsParams(alpha=0.13))
    report = evaluate_sequence(preds, gts, frames)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN_DIR / "e2e_working_point_report.json").read_text()
    assert report.detection_rate >= 80.0
    assert report.mean_iou >= 40.0


def test_08_failure_mode_background_density(br1_data, br3_data):
    with criterion("background-dominant fixture scores strictly lower mIoU"):
        params = OmsParams(alpha=0.13)
        reports = []
        for frames, gts in (br1_data, br3_data):
            preds = oms_sequence(frames, params)
            reports.append(evaluate_sequence(preds, gts, frames))
        balanced, dominant = reports
        assert dominant.mean_iou < balanced.mean_iou


def test_09_determinism(br1_data):
    with criterion("reruns and thread-count changes are bitwise identical"):
        frames, gts = br1_data
        params = OmsParams(alpha=0.13)
        runs = [
            oms_sequence(frames, params, threads=t) for t in (1, 1, 4)
        ]
        for other in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))
        reports = [
            json.dumps(evaluate_sequence(r, gts, frames).to_dict(), sort_keys=True)
            for r in runs
        ]
        assert len(set(reports)) == 1


@pytest.mark.skip(reason="full-dataset reproduction needs external downloads; "
                         "excluded from the default suite")
def test_10_full_dataset_reproduction():
    raise NotImplementedError
