"""Independent output checks. Nothing here calls oms.engine, oms.events or
oms.dataset_io: frames, kernels, scores and the PGM format are re-derived
from their documented definitions, so a bug in the program cannot hide in
shared code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Pixels whose reference score lies this close to alpha are reported as
# ties and left out of the comparison: the program and the reference sum
# in a different order.
TIE_EPS = 1e-9


def frames_from_events(events: np.ndarray, timestamps: np.ndarray, shape) -> np.ndarray:
    """(T, H, W) uint8 stack: pixel = 1 iff an event hit it in (t_{k-1}, t_k]."""
    t = events["t"].astype(np.int64)
    k = np.searchsorted(timestamps, t, side="left")
    keep = k < len(timestamps)
    stack = np.zeros((len(timestamps), *shape), dtype=np.uint8)
    stack[k[keep], events["y"][keep], events["x"][keep]] = 1
    return stack


def feathered_kernel(radius: int, sigma: float) -> np.ndarray:
    """2r x 2r Gaussian sampled at cell centers, cut to radius r, summing to one."""
    c = np.arange(2 * radius) + 0.5 - radius
    d2 = c[:, None] ** 2 + c[None, :] ** 2
    w = np.where(d2 <= radius * radius, np.exp(-d2 / (2.0 * sigma * sigma)), 0.0)
    return w / w.sum()


def difference_taps(r1: int, r2: int) -> np.ndarray:
    """Center minus surround on the surround's grid. Dense mode anchors both
    kernels at the pixel's top-left corner, so the center sits at offset
    r2 - r1 inside the surround window."""
    d = -feathered_kernel(r2, r2 / 2.0)
    o = r2 - r1
    d[o:o + 2 * r1, o:o + 2 * r1] += feathered_kernel(r1, r1 / 2.0)
    return d


def reference_scores(stack: np.ndarray, r1: int = 2, r2: int = 4) -> np.ndarray:
    """Dense |center - surround| score of every frame, as a sum of shifted
    copies of the zero-padded frame, one per nonzero tap."""
    taps = difference_taps(r1, r2)
    n, h, w = stack.shape
    scores = np.empty(stack.shape, dtype=np.float64)
    padded = np.zeros((h + 2 * r2 - 1, w + 2 * r2 - 1))
    term = np.empty((h, w))
    for i in range(n):
        padded[r2:r2 + h, r2:r2 + w] = stack[i]
        acc = np.zeros((h, w))
        for dy, dx in zip(*np.nonzero(taps)):
            np.multiply(padded[dy:dy + h, dx:dx + w], taps[dy, dx], out=term)
            acc += term
        scores[i] = np.abs(acc)
    return scores


class MaskReference:
    """Expected masks at one alpha, with near-ties set aside."""

    def __init__(self, scores: np.ndarray, alpha: float):
        self.masks = (scores > alpha).astype(np.uint8)
        self.ties = np.abs(scores - alpha) <= TIE_EPS
        self.tie_count = int(self.ties.sum())

    def mismatches(self, masks: np.ndarray, frame: int | None = None) -> int:
        """Pixels outside the ties where `masks` differs from the reference
        (the whole stack, or one frame)."""
        ref, ties = (self.masks, self.ties) if frame is None else (self.masks[frame], self.ties[frame])
        if masks.shape != ref.shape:
            return ref.size
        return int(np.count_nonzero((masks != ref) & ~ties))


def score_masks(frames: np.ndarray, gts: np.ndarray, masks: np.ndarray) -> tuple[float, float]:
    """(mean IoU %, detection rate %) of event-masked predictions against
    event-masked ground truth; frames with an empty masked ground truth are
    skipped. A frame is detected when the prediction covers half the ground
    truth and overlaps it more than the outside."""
    ious, detected = [], 0
    for f, g, m in zip(frames.astype(bool), gts.astype(bool), masks.astype(bool)):
        gt, pred = f & g, f & m
        if not gt.any():
            continue
        inter = np.count_nonzero(pred & gt)
        ious.append(inter / np.count_nonzero(pred | gt))
        detected += inter >= 0.5 * np.count_nonzero(gt) and inter > np.count_nonzero(pred & ~gt)
    if not ious:
        return 0.0, 0.0
    return 100.0 * float(np.mean(ious)), 100.0 * detected / len(ious)


def read_pgm(path) -> np.ndarray:
    """Strict reader for the masks `oms run` writes: "P5\\n<w> <h>\\n255\\n"
    then w*h bytes of 0 or 255. Returns {0,1} uint8."""
    data = Path(path).read_bytes()
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P5" or head[2] != b"255":
        raise ValueError(f"{path}: unexpected PGM header")
    w, h = (int(v) for v in head[1].split())
    body = np.frombuffer(head[3], dtype=np.uint8)
    if body.size != w * h or not np.isin(body, (0, 255)).all():
        raise ValueError(f"{path}: pixel data is not {w}x{h} bytes of 0/255")
    return (body.reshape(h, w) > 0).astype(np.uint8)


def read_mask_stack(out_dir: Path, count: int) -> np.ndarray:
    return np.stack([read_pgm(out_dir / f"oms_{i:05d}.pgm") for i in range(count)])


def stack_digest(masks: np.ndarray) -> str:
    return hashlib.sha256((np.asarray(masks) > 0).astype(np.uint8).tobytes()).hexdigest()


REPORT_FIELDS = ("mean_iou", "iou_std", "detection_rate", "frames_evaluated",
                 "frames_skipped", "br_mean")


def report_digest(report: dict) -> str:
    """Digest of the scored fields of an `oms eval` report, so that keys a
    later version adds do not change it."""
    core = {k: report[k] for k in REPORT_FIELDS}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()
