"""Retina-inspired object motion sensitivity (OMS) for event cameras.

Converts DVS event streams into binary frames, suppresses ego-motion with
center-surround Gaussian filtering, and evaluates the resulting motion
masks with mIoU and detection rate.
"""

from .engine import (
    OmsParams,
    apply_mask,
    filter_frame,
    oms_frame,
    oms_scores,
    oms_sequence,
)
from .errors import OmsError, ParameterError, ParseError, ValidationError
from .events import (
    EVENT_DTYPE,
    Event,
    SensorGeometry,
    accumulate_frame,
    as_event_array,
    window_events,
)
from .kernels import Kernel, kernel_to_text, make_feathered_kernel
from .metrics import (
    FrameScore,
    SequenceReport,
    bf_ratio,
    detection,
    evaluate_sequence,
    iou,
    score_frame,
)
from .synthetic import SceneConfig, SceneObject, generate_scene, render_frames, scene_br

__version__ = "0.1.0"

__all__ = [
    "EVENT_DTYPE",
    "Event",
    "FrameScore",
    "Kernel",
    "OmsError",
    "OmsParams",
    "ParameterError",
    "ParseError",
    "SceneConfig",
    "SceneObject",
    "SensorGeometry",
    "SequenceReport",
    "ValidationError",
    "accumulate_frame",
    "apply_mask",
    "as_event_array",
    "bf_ratio",
    "detection",
    "evaluate_sequence",
    "filter_frame",
    "generate_scene",
    "iou",
    "kernel_to_text",
    "make_feathered_kernel",
    "oms_frame",
    "oms_scores",
    "oms_sequence",
    "render_frames",
    "scene_br",
    "score_frame",
    "window_events",
]
