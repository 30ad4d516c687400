"""The one rule for numeric fields: every value type raises its own OmsError
subclass for a value of the wrong type or range, never TypeError; and the
input contract of every exported callable."""

import numpy as np
import pytest

import oms
from oms import (
    EVENT_DTYPE,
    Event,
    FrameScore,
    Kernel,
    OmsError,
    OmsParams,
    ParameterError,
    SceneConfig,
    SceneObject,
    SensorGeometry,
    SequenceReport,
    ValidationError,
    accumulate_frame,
    apply_mask,
    as_event_array,
    bf_ratio,
    detection,
    evaluate_sequence,
    filter_frame,
    generate_scene,
    iou,
    kernel_to_text,
    make_feathered_kernel,
    oms_frame,
    oms_scores,
    oms_sequence,
    render_frames,
    scene_br,
    score_frame,
    window_events,
)
from oms.dataset_io import DatasetManifest, write_events
from oms.events import bin_events
from oms.errors import _check_number


def scene(**changes):
    fields = dict(geometry=SensorGeometry(16, 8), n_frames=3, bg_density=0.1,
                  camera_velocity=(1.0, 0.0),
                  objects=(SceneObject("rect", 3, (1.0, 0.0), (2.0, 4.0)),))
    return SceneConfig(**{**fields, **changes})


@pytest.mark.parametrize("build, error", [
    (lambda tmp: OmsParams(r1="2"), ParameterError),
    (lambda tmp: OmsParams(r1=True), ParameterError),
    (lambda tmp: OmsParams(alpha=None), ParameterError),
    (lambda tmp: OmsParams(sigma_c="1"), ParameterError),
    (lambda tmp: OmsParams(s_s=1.5, mode="strided"), ParameterError),
    (lambda tmp: SensorGeometry(70000, 4).validate(), ValidationError),
    (lambda tmp: SensorGeometry(2.5, 4).validate(), ValidationError),
    (lambda tmp: write_events([], SensorGeometry(70000, 4), tmp / "e.evt"), ValidationError),
    (lambda tmp: make_feathered_kernel(True, 0.5), ParameterError),
    (lambda tmp: scene(n_frames=3.5), ParameterError),
    (lambda tmp: SceneObject("disk", 2.5, (0.0, 0.0), (4.0, 4.0)), ParameterError),
], ids=["r1_str", "r1_bool", "alpha_none", "sigma_str", "stride_float", "width_u16",
        "width_float", "write_events_width", "radius_bool", "n_frames_float", "size_float"])
def test_rejected(tmp_path, build, error):
    with pytest.raises(error):
        build(tmp_path)


@pytest.mark.parametrize("build", [
    lambda: OmsParams(r1=np.int64(2), r2=np.int32(5), s_s=np.uint8(2)),
    lambda: OmsParams(alpha=0),
    lambda: OmsParams(alpha=1, sigma_c=1, sigma_s=np.float32(2.5)),
    lambda: make_feathered_kernel(np.int64(3), 1.5),
    lambda: SensorGeometry(np.uint16(65535), 1).validate(),
    lambda: scene(n_frames=np.int64(2), seed=np.uint32(7), noise_rate=1),
], ids=["numpy_radii", "int_alpha_0", "int_alpha_1", "numpy_radius", "numpy_width",
        "numpy_scene"])
def test_accepted(build):
    build()


EVENTS = np.zeros(2, dtype=EVENT_DTYPE)
EVENTS["p"] = 1


@pytest.mark.parametrize("call, match", [
    (lambda: DatasetManifest((64, 48), "e", "m", 5), "mask timestamps must be a sequence"),
    (lambda: bin_events(EVENTS, 5, SensorGeometry(8, 8)), "mask timestamps must be a sequence"),
    (lambda: window_events(EVENTS, None), "mask timestamps must be a sequence"),
    (lambda: accumulate_frame(EVENTS, (8,)), r"geometry must be a \(width, height\) pair"),
], ids=["manifest_timestamps", "bin_timestamps", "window_timestamps", "accumulate_geometry"])
def test_wrong_kind_is_validation_error(call, match):
    # Each raised TypeError ("not iterable", or a missing NamedTuple field).
    with pytest.raises(ValidationError, match=match):
        call()


def test_message_names_field_interval_and_value():
    with pytest.raises(ParameterError, match=r"^r1 must be an integer in \[1, inf\], got '2'$"):
        OmsParams(r1="2")
    with pytest.raises(ParameterError, match=r"^sigma_s must be a number in \(0, inf\), got 0$"):
        OmsParams(sigma_s=0)


@pytest.mark.parametrize("value", [True, np.True_, float("nan"), "1", None, [1], 1 + 0j])
def test_no_interval_holds_a_non_number(value):
    with pytest.raises(OmsError):
        _check_number(OmsError, "x", value, False, -np.inf, np.inf)


@pytest.mark.parametrize("value, open, ok", [
    (0, False, True), (1, False, True), (0, True, False), (1, True, False), (0.5, True, True),
])
def test_interval_ends(value, open, ok):
    if ok:
        assert _check_number(ValidationError, "x", value, False, 0, 1, open) is value
    else:
        with pytest.raises(ValidationError):
            _check_number(ValidationError, "x", value, False, 0, 1, open)


FRAME = np.zeros((16, 16), np.uint8)
KERNEL = make_feathered_kernel(2, 1.0)

# One bad call or more for each exported callable, and the error it raises.
# Data of the wrong kind or content raises ValidationError or ParameterError;
# a foreign object where an OmsParams, Kernel or SceneConfig belongs raises
# TypeError, as does a wrong argument count.
CONTRACT = [
    ("Event", lambda: Event(1, 2), TypeError),
    ("FrameScore", lambda: FrameScore(1.0), TypeError),
    ("Kernel", lambda: Kernel(1, 1.0, np.ones((3, 3))), ParameterError),
    ("OmsParams", lambda: OmsParams(mode=None), ParameterError),
    ("SceneConfig", lambda: scene(objects=(None,)), ParameterError),
    ("SceneConfig", lambda: scene(objects=5), ParameterError),
    ("SceneObject", lambda: SceneObject("rect", 3, None, (2.0, 4.0)), ParameterError),
    ("SensorGeometry", lambda: SensorGeometry(8), TypeError),
    ("SequenceReport", lambda: SequenceReport(1.0), TypeError),
    ("accumulate_frame", lambda: accumulate_frame(None, (8, 8)), ValidationError),
    ("apply_mask", lambda: apply_mask(FRAME, np.zeros((4, 5))), ValidationError),
    ("as_event_array", lambda: as_event_array("abcd"), ValidationError),
    ("bf_ratio", lambda: bf_ratio(FRAME, np.zeros((3, 3))), ValidationError),
    ("detection", lambda: detection(None, FRAME), ValidationError),
    ("evaluate_sequence", lambda: evaluate_sequence([FRAME], [FRAME, FRAME], [FRAME]),
     ValidationError),
    ("filter_frame", lambda: filter_frame(FRAME, None), TypeError),
    ("filter_frame", lambda: filter_frame(FRAME, KERNEL, mode="x"), ParameterError),
    ("generate_scene", lambda: generate_scene(None), TypeError),
    ("iou", lambda: iou("x", FRAME), ValidationError),
    ("kernel_to_text", lambda: kernel_to_text(None), TypeError),
    ("make_feathered_kernel", lambda: make_feathered_kernel(None, 1.0), ParameterError),
    ("oms_frame", lambda: oms_frame(FRAME, OmsParams(), "x", "y"), TypeError),
    ("oms_frame", lambda: oms_frame(FRAME + 2, OmsParams()), ValidationError),
    ("oms_scores", lambda: oms_scores(FRAME, None), TypeError),
    ("oms_scores", lambda: oms_scores(FRAME, OmsParams(), KERNEL, None), ParameterError),
    ("oms_sequence", lambda: oms_sequence(5, OmsParams()), ValidationError),
    ("render_frames", lambda: render_frames(None), TypeError),
    ("scene_br", lambda: scene_br(None), TypeError),
    ("score_frame", lambda: score_frame(FRAME, None), ValidationError),
    ("window_events", lambda: window_events(EVENTS, None), ValidationError),
]
# Exceptions take any message, so no argument is bad.
NO_BAD_ARGUMENT = {"OmsError", "ParameterError", "ParseError", "ValidationError"}


@pytest.mark.parametrize("name, call, error", CONTRACT,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(CONTRACT)])
def test_input_contract(name, call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_input_contract_covers_every_export():
    exported = {name for name in oms.__all__ if callable(getattr(oms, name))}
    assert {name for name, *_ in CONTRACT} | NO_BAD_ARGUMENT == exported
