"""Segmentation metrics: per-frame IoU, detection, sequence aggregation,
and the background-to-foreground diagnostic ratio.

Following the evaluation protocol, both sides of the comparison are
event-masked: the prediction is the DVS frame ANDed with the algorithm
output, the ground truth is the DVS frame ANDed with the motion mask.
Frames whose masked ground truth is empty carry no signal and are skipped
(counted, not scored).

One count (_counts) takes each frame's active, intersection, prediction and
ground-truth pixels in turn, with no (T, H, W) copy of a sequence; IoU and
detection have one rule (_rules), the ratio one formula (_br). iou,
detection, score_frame and bf_ratio are one-frame calls of it and accept
any 2-D array-like, nested lists included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .errors import ParameterError, ValidationError, _array, _json

#: Sentinel returned by iou() when both masks are empty (frame skipped).
IOU_SKIP = float("nan")


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union; NaN (IOU_SKIP) when both masks are empty."""
    _, inter, pred_area, gt_area = _counts([(pred, gt, None)])
    return _frame_scores(inter, pred_area, gt_area)[0].iou if pred_area + gt_area else IOU_SKIP


def detection(pred: np.ndarray, gt: np.ndarray) -> bool:
    """Whether the prediction covers at least half of the ground-truth area
    and overlaps the ground truth more than it overlaps the outside."""
    return score_frame(pred, gt).detected


def bf_ratio(dvs_frame: np.ndarray, gt: np.ndarray) -> float:
    """Active DVS pixels outside the ground truth divided by those inside;
    +inf when nothing is active inside."""
    _, inside, active, _ = _counts([(dvs_frame, gt, None)])
    return float(_br(active, inside)[0]) if inside[0] else math.inf


@dataclass(frozen=True)
class FrameScore:
    iou: float
    detected: bool
    gt_area: int
    inter_area: int
    outside_inter_area: int


def score_frame(pred: np.ndarray, gt: np.ndarray) -> FrameScore:
    """Score one evaluated frame (gt must be non-empty)."""
    _, inter, pred_area, gt_area = _counts([(pred, gt, None)])
    if gt_area[0] == 0:
        raise ValidationError("cannot score a frame with empty ground truth")
    return _frame_scores(inter, pred_area, gt_area)[0]


@dataclass(frozen=True)
class SequenceReport:
    mean_iou: float          # percent
    iou_std: float           # percent, population std over evaluated frames
    detection_rate: float    # percent
    frames_evaluated: int
    frames_skipped: int
    br_mean: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_sequence(
    preds: Sequence[np.ndarray],
    gts: Sequence[np.ndarray],
    dvs_frames: Sequence[np.ndarray],
    with_frames: bool = False,
):
    """Aggregate per-frame scores over a sequence.

    preds are raw algorithm outputs and gts are raw motion masks; both are
    ANDed with the matching DVS frame before scoring. Frames whose masked
    ground truth is empty are skipped and counted. Returns a SequenceReport,
    or (report, frame_scores) when with_frames is set, where frame_scores[i]
    is None for skipped frames.
    """
    try:
        lengths = tuple(map(len, (preds, gts, dvs_frames)))
    except TypeError as exc:  # an argument that is not a sequence
        raise ValidationError(f"preds, gts and dvs_frames must be sequences: {exc}") from None
    if len(set(lengths)) != 1:
        raise ValidationError("length mismatch: {} preds, {} gts, {} frames".format(*lengths))
    _json("with_frames", with_frames, bool, ParameterError)
    return _report(_counts(zip(preds, gts, dvs_frames)), with_frames)


def _report(counts: np.ndarray, with_frames: bool):
    """evaluate_sequence's result from the sequence's _counts."""
    keep = counts[3] > 0  # a non-empty ground truth
    active, inter, pred_area, gt_area = counts[:, keep]
    ious, _, detected = _rules(inter, pred_area, gt_area)
    n = len(ious)
    report = SequenceReport(
        mean_iou=100.0 * float(np.mean(ious)) if n else 0.0,
        iou_std=100.0 * float(np.std(ious)) if n else 0.0,
        detection_rate=100.0 * int(detected.sum()) / n if n else 0.0,
        frames_evaluated=n,
        frames_skipped=len(keep) - n,
        br_mean=float(np.mean(_br(active, gt_area))) if n else 0.0,
    )
    if not with_frames:
        return report
    scores = iter(_frame_scores(inter, pred_area, gt_area))
    return report, [next(scores) if k else None for k in keep]


def _counts(frames) -> np.ndarray:
    """Per-frame (active, intersection, prediction, ground-truth) pixel counts,
    a (4, T) int64 array, of an iterable of T (pred, gt, dvs) frame triples:
    pred and gt are ANDed with the DVS frame dvs, and dvs None means every
    pixel is active. All inputs are 2-D and of one shape across the frames.
    Any nonzero value is 1, so masks need no decoding; ANDs reuse two buffers."""
    counts = []
    for k, (pred, gt, dvs) in enumerate(frames):
        pred, gt = (_array(ValidationError, f"frame {k}", a) for a in (pred, gt))
        dvs = (np.ones(pred.shape, bool) if dvs is None
               else _array(ValidationError, f"frame {k}", dvs))
        # logical_and reads a nonzero number as true (NaN too); other kinds are cast to bool
        pred, gt, dvs = (a if a.dtype.kind in "biuf" else a.astype(bool) for a in (pred, gt, dvs))
        if k == 0:  # every frame's shape, and the two buffers the ANDs write
            shape, (pred_in, gt_in) = pred.shape, np.empty((2, *pred.shape), bool)
        if len(shape) != 2 or not pred.shape == gt.shape == dvs.shape == shape:
            raise ValidationError(
                f"shape mismatch at frame {k}: prediction {pred.shape}, ground truth "
                f"{gt.shape}, DVS frame {dvs.shape}; each must be 2-D and {shape}")
        np.logical_and(pred, dvs, out=pred_in)
        np.logical_and(gt, dvs, out=gt_in)
        pred_area, gt_area = np.count_nonzero(pred_in), np.count_nonzero(gt_in)
        np.logical_and(pred_in, gt_in, out=pred_in)
        counts.append((np.count_nonzero(dvs), np.count_nonzero(pred_in), pred_area, gt_area))
    return np.array(counts, dtype=np.int64).reshape(-1, 4).T


def _rules(inter, pred_area, gt_area):
    """(IoU, outside area, detected), elementwise on per-frame counts with a
    non-empty union; detection is the rule that detection() documents."""
    outside = pred_area - inter
    detected = (inter >= 0.5 * gt_area) & (inter > outside)
    return inter / (pred_area + gt_area - inter), outside, detected


def _br(active, inside):
    """Active pixels outside the ground truth per active pixel inside, elementwise."""
    return (active - inside) / inside


def _frame_scores(inter, pred_area, gt_area) -> list[FrameScore]:
    """One FrameScore per frame of per-frame counts."""
    ious, outside, detected = _rules(inter, pred_area, gt_area)
    return [FrameScore(float(v), bool(d), int(g), int(i), int(o))
            for v, d, g, i, o in zip(ious, detected, gt_area, inter, outside)]
