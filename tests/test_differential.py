"""End-to-end differential test: `oms run` and `oms eval` on tiny written
datasets against a pipeline built from the test-side oracles alone (the
window scan, the four-loop correlation, the direct kernel formula, the
nearest-cell fill and the per-pixel metric recount)."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oms import EVENT_DTYPE, SensorGeometry
from oms.dataset_io import write_dataset

from test_cli import run_cli
from test_engine import nearest_cell_fill, reference_filter
from test_events import scanned_stack
from test_kernels import reference_kernel
from test_metrics import _scan, _scan_score

# Positions whose oracle score lies this close to alpha are not compared:
# the oracle sums in another order, so its last bits may differ.
TIE = 1e-9


@st.composite
def datasets(draw):
    """(geometry, events, mask timestamps, ground-truth masks, run flags):
    8-24 px sides, up to 200 events, 1-4 timestamps, radii that fit."""
    geometry = SensorGeometry(draw(st.integers(8, 24)), draw(st.integers(8, 24)))
    r_max = min(geometry) // 2
    r2 = draw(st.integers(2, min(r_max, 4)))
    r1 = draw(st.integers(1, r2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 200))
    events = np.zeros(n, EVENT_DTYPE)
    events["t"] = np.sort(rng.integers(0, 120, n))
    events["x"] = rng.integers(0, geometry.width, n)
    events["y"] = rng.integers(0, geometry.height, n)
    events["p"] = rng.choice([-1, 1], n)
    timestamps = sorted(draw(st.sets(st.integers(0, 100), min_size=1, max_size=4)))
    masks = [(rng.random(geometry.shape) < 0.3).astype(np.uint8) for _ in timestamps]
    mode = draw(st.sampled_from(["dense", "strided"]))
    stride = draw(st.integers(1, 3)) if mode == "strided" else 1
    return geometry, events, timestamps, masks, (r1, r2, mode, stride)


def oracle_scores(frame, r1, r2):
    """The dense |center - surround| score from the four-loop correlation of
    directly evaluated kernels (sigma = r / 2)."""
    center, surround = (reference_filter(frame, reference_kernel(r, r / 2), r, 1, "dense")
                        for r in (r1, r2))
    return np.abs(center - surround)


def read_pgm(path, geometry):
    """A 0/255 PGM in the exact bytes `oms run` documents, as a 0/1 array."""
    data = path.read_bytes()
    header = f"P5\n{geometry.width} {geometry.height}\n255\n".encode()
    assert data.startswith(header) and len(data) == len(header) + geometry.width * geometry.height
    pixels = np.frombuffer(data, np.uint8, offset=len(header)).reshape(geometry.shape)
    assert set(np.unique(pixels).tolist()) <= {0, 255}
    return (pixels // 255).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(case=datasets(), data=st.data())
def test_run_and_eval_match_oracles(case, data):
    geometry, events, timestamps, masks, (r1, r2, mode, stride) = case
    frames = scanned_stack(events, timestamps, geometry)
    scores = [oracle_scores(f, r1, r2) for f in frames]
    reached = sorted(set(np.concatenate([s.ravel() for s in scores]).tolist()))
    value = data.draw(st.sampled_from(reached))
    alpha = data.draw(st.sampled_from(
        [a for a in (0.0, value, np.nextafter(value, -1), np.nextafter(value, 2)) if 0 <= a <= 1]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = write_dataset(tmp / "ds", events, geometry, masks, timestamps)
        out = tmp / "run"
        result = run_cli("run", "--manifest", manifest, "--out", out, "--r1", r1, "--r2", r2,
                         "--mode", mode, "--stride", stride, "--alpha", repr(float(alpha)))
        assert result.exit_code == 0, result.output
        preds = [read_pgm(out / f"oms_{k:05d}.pgm", geometry) for k in range(len(timestamps))]
        result = run_cli("eval", "--pred-dir", out, "--manifest", manifest)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)

    r = max(r1, r2)
    for score, pred in zip(scores, preds):
        want, known = score > alpha, np.abs(score - alpha) > TIE
        if mode == "strided":
            lattice = (slice(r, geometry.height - r + 1, stride),
                       slice(r, geometry.width - r + 1, stride))
            region = nearest_cell_fill(np.ones_like(want[lattice]), geometry.shape, r, stride)
            want = nearest_cell_fill(want[lattice], geometry.shape, r, stride)
            known = nearest_cell_fill(known[lattice], geometry.shape, r, stride) == 1
            known |= region == 0
        assert np.array_equal(pred[known], want[known].astype(np.uint8))

    scored = [_scan_score(pred, gt, within=frame)
              for pred, gt, frame in zip(preds, masks, frames) if _scan(frame, gt)[0]]
    assert report["frames_evaluated"] == len(scored)
    assert report["frames_skipped"] == len(timestamps) - len(scored)
    if scored:
        mean_iou = 100.0 * math.fsum(s["iou"] for s in scored) / len(scored)
        rate = 100.0 * sum(s["detected"] for s in scored) / len(scored)
    else:
        mean_iou = rate = 0.0
    assert abs(report["mean_iou"] - mean_iou) < 1e-9
    assert report["detection_rate"] == rate
