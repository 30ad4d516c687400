"""Retina-inspired object motion sensitivity (OMS) for event cameras.

Converts DVS event streams into binary frames, suppresses ego-motion with
center-surround Gaussian filtering, and evaluates the resulting motion
masks with mIoU and detection rate.
"""

import importlib

from .engine import (
    OmsParams,
    filter_frame,
    oms_frame,
    oms_scores,
    oms_sequence,
)
from .errors import OmsError, ParameterError, ParseError, ValidationError
from .events import (
    EVENT_DTYPE,
    SensorGeometry,
    accumulate_frame,
    window_events,
)
from .kernels import Kernel, kernel_to_text, make_feathered_kernel

__version__ = "0.1.0"

# Exports of the modules that `oms run` does not call, imported on first use (PEP 562).
_LAZY = dict.fromkeys(("FrameScore", "SequenceReport", "bf_ratio", "detection",
                       "evaluate_sequence", "iou", "score_frame"), "metrics")
_LAZY.update(dict.fromkeys(("SceneConfig", "SceneObject", "generate_scene", "scene_br"),
                           "synthetic"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value

__all__ = [
    "EVENT_DTYPE",
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
    "scene_br",
    "score_frame",
    "window_events",
]
