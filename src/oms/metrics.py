"""Segmentation metrics: per-frame IoU, detection, sequence aggregation,
and the background-to-foreground diagnostic ratio.

Following the evaluation protocol, both sides of the comparison are
event-masked: the prediction is the DVS frame ANDed with the algorithm
output, the ground truth is the DVS frame ANDed with the motion mask.
Frames whose masked ground truth is empty carry no signal and are skipped
(counted, not scored).

The per-frame metrics and the sequence report share one pixel count
(_areas) and one rule each for IoU and detection (_rules) and for the ratio
(_br): iou, detection, score_frame and bf_ratio are one-frame views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .errors import ValidationError

#: Sentinel returned by iou() when both masks are empty (frame skipped).
IOU_SKIP = float("nan")


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union; NaN (IOU_SKIP) when both masks are empty."""
    inter, pred_area, gt_area = _pair_areas(pred, gt)
    return _frame_scores(inter, pred_area, gt_area)[0].iou if pred_area + gt_area else IOU_SKIP


def detection(pred: np.ndarray, gt: np.ndarray) -> bool:
    """Whether the prediction covers at least half of the ground-truth area
    and overlaps the ground truth more than it overlaps the outside."""
    return score_frame(pred, gt).detected


def bf_ratio(dvs_frame: np.ndarray, gt: np.ndarray) -> float:
    """Active DVS pixels outside the ground truth divided by those inside;
    +inf when nothing is active inside."""
    inside, active, _ = _pair_areas(dvs_frame, gt)
    if inside[0] == 0:
        return math.inf
    return float(_br(active, inside)[0])


@dataclass(frozen=True)
class FrameScore:
    iou: float
    detected: bool
    gt_area: int
    inter_area: int
    outside_inter_area: int


def score_frame(pred: np.ndarray, gt: np.ndarray) -> FrameScore:
    """Score one evaluated frame (gt must be non-empty)."""
    inter, pred_area, gt_area = _pair_areas(pred, gt)
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
    active = _frame_counts(dvs)
    inter, pred_area, gt_area = _areas(pred_m, gt_m)
    keep = gt_area > 0
    inter, pred_area, gt_area, active = (c[keep] for c in (inter, pred_area, gt_area, active))
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


def _areas(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (intersection, prediction, ground-truth) pixel counts of two
    equal-shape bool stacks; ANDs gt into pred in place."""
    pred_area, gt_area = _frame_counts(pred), _frame_counts(gt)
    pred &= gt
    return _frame_counts(pred), pred_area, gt_area


def _pair_areas(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_areas of one pair of masks, each count an array of length one."""
    if pred.shape != gt.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return _areas(pred.astype(bool)[None], gt.astype(bool)[None])


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
