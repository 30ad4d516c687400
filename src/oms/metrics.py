"""Segmentation metrics: per-frame IoU, detection, sequence aggregation,
and the background-to-foreground diagnostic ratio.

Following the evaluation protocol, both sides of the comparison are
event-masked: the prediction is the DVS frame ANDed with the algorithm
output, the ground truth is the DVS frame ANDed with the motion mask.
Frames whose masked ground truth is empty carry no signal and are skipped
(counted, not scored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .errors import ValidationError

#: Sentinel returned by iou() when both masks are empty (frame skipped).
IOU_SKIP = float("nan")


def _counts(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int, int]:
    if pred.shape != gt.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    inter = int(np.count_nonzero(p & g))
    union = int(np.count_nonzero(p | g))
    outside = int(np.count_nonzero(p & ~g))
    return inter, union, outside, int(np.count_nonzero(g))


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union; NaN (IOU_SKIP) when both masks are empty."""
    inter, union, _, _ = _counts(pred, gt)
    if union == 0:
        return IOU_SKIP
    return inter / union


def detection(pred: np.ndarray, gt: np.ndarray) -> bool:
    """A frame counts as detected when the prediction covers at least half of
    the ground-truth area and overlaps the ground truth more than it
    overlaps the outside."""
    inter, _, outside, gt_area = _counts(pred, gt)
    if gt_area == 0:
        raise ValidationError("detection is undefined for an empty ground truth")
    return bool(_detected(inter, outside, gt_area))


def _detected(inter, outside, gt_area):
    """The detection rule, elementwise on counts (ints or integer arrays)."""
    return (inter >= 0.5 * gt_area) & (inter > outside)


def bf_ratio(dvs_frame: np.ndarray, gt: np.ndarray) -> float:
    """Active DVS pixels outside the ground truth divided by those inside;
    +inf when nothing is active inside."""
    if dvs_frame.shape != gt.shape:
        raise ValidationError(f"shape mismatch: {dvs_frame.shape} vs {gt.shape}")
    f = dvs_frame.astype(bool)
    g = gt.astype(bool)
    inside = int(np.count_nonzero(f & g))
    outside = int(np.count_nonzero(f & ~g))
    if inside == 0:
        return math.inf
    return outside / inside


@dataclass(frozen=True)
class FrameScore:
    iou: float
    detected: bool
    gt_area: int
    inter_area: int
    outside_inter_area: int


def score_frame(pred: np.ndarray, gt: np.ndarray) -> FrameScore:
    """Score one evaluated frame (gt must be non-empty)."""
    inter, union, outside, gt_area = _counts(pred, gt)
    if gt_area == 0:
        raise ValidationError("cannot score a frame with empty ground truth")
    return FrameScore(
        iou=inter / union,
        detected=bool(_detected(inter, outside, gt_area)),
        gt_area=gt_area,
        inter_area=inter,
        outside_inter_area=outside,
    )


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
    if not (len(preds) == len(gts) == len(dvs_frames)):
        raise ValidationError(
            f"length mismatch: {len(preds)} preds, {len(gts)} gts, {len(dvs_frames)} frames"
        )
    dvs = _bool_stack(dvs_frames, "frame")
    gt_m = _bool_stack(gts, "mask")
    pred_m = _bool_stack(preds, "mask")
    if not (dvs.shape == gt_m.shape == pred_m.shape):
        raise ValidationError(
            f"shape mismatch: frames {dvs.shape}, gts {gt_m.shape}, preds {pred_m.shape}"
        )
    gt_m &= dvs
    pred_m &= dvs
    active, gt_area, pred_area = (_frame_counts(m) for m in (dvs, gt_m, pred_m))
    pred_m &= gt_m
    inter = _frame_counts(pred_m)
    keep = gt_area > 0
    inter, gt_area, pred_area, active = (c[keep] for c in (inter, gt_area, pred_area, active))
    outside = pred_area - inter
    ious = inter / (pred_area + gt_area - inter)
    detected = _detected(inter, outside, gt_area)
    n = len(ious)
    report = SequenceReport(
        mean_iou=100.0 * float(np.mean(ious)) if n else 0.0,
        iou_std=100.0 * float(np.std(ious)) if n else 0.0,
        detection_rate=100.0 * int(detected.sum()) / n if n else 0.0,
        frames_evaluated=n,
        frames_skipped=len(keep) - n,
        br_mean=float(np.mean((active - gt_area) / gt_area)) if n else 0.0,
    )
    if not with_frames:
        return report
    frame_scores: list[FrameScore | None] = [None] * len(keep)
    for j, k in enumerate(np.flatnonzero(keep)):
        frame_scores[k] = FrameScore(
            iou=float(ious[j]),
            detected=bool(detected[j]),
            gt_area=int(gt_area[j]),
            inter_area=int(inter[j]),
            outside_inter_area=int(outside[j]),
        )
    return report, frame_scores


def _bool_stack(frames: Sequence[np.ndarray], what: str) -> np.ndarray:
    """A (T, H, W) bool copy of a sequence (or stack) of equal-shape 2D frames."""
    try:
        stack = np.array(list(frames), dtype=bool)
    except ValueError as exc:  # frames of different shapes
        raise ValidationError(f"shape mismatch between {what}s: {exc}") from exc
    if len(stack) and stack.ndim != 3:
        raise ValidationError(f"each {what} must be 2D, got shape {stack.shape[1:]}")
    return stack


def _frame_counts(stack: np.ndarray) -> np.ndarray:
    """Nonzero count of each frame of a bool stack."""
    return np.array([np.count_nonzero(frame) for frame in stack], dtype=np.int64)
