"""The one rule for numeric fields: every value type raises its own OmsError
subclass for a value of the wrong type or range, never TypeError; and the
input contract of every exported callable, as a table and fuzzed."""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oms
from oms import (
    EVENT_DTYPE,
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
EVENTS_2D = EVENTS.reshape(1, 2)


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
RAGGED = [[1, 2], [3]]  # a nested list that is not an array
ARRAY = np.zeros((2, 2))  # a multi-element array where a string or a bool belongs
OTHER_DTYPE = np.dtype([("t", "<i8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])

# One bad call or more for each exported callable, and the error it raises.
# Data of the wrong kind or content raises ValidationError or ParameterError;
# a foreign object where an OmsParams, Kernel or SceneConfig belongs raises
# TypeError, as does a wrong argument count. A row's index is its test id, so
# a new row takes the place of a removed one, or goes at the end.
CONTRACT = [
    ("window_events", lambda: window_events(EVENTS_2D, [1]), ValidationError),
    ("FrameScore", lambda: FrameScore(1.0), TypeError),
    ("Kernel", lambda: Kernel(1, 1.0, np.ones((3, 3))), ParameterError),
    ("OmsParams", lambda: OmsParams(mode=None), ParameterError),
    ("SceneConfig", lambda: scene(objects=(None,)), ParameterError),
    ("SceneConfig", lambda: scene(objects=5), ParameterError),
    ("SceneObject", lambda: SceneObject("rect", 3, None, (2.0, 4.0)), ParameterError),
    ("SensorGeometry", lambda: SensorGeometry(8), TypeError),
    ("SequenceReport", lambda: SequenceReport(1.0), TypeError),
    ("accumulate_frame", lambda: accumulate_frame(None, (8, 8)), ValidationError),
    ("accumulate_frame", lambda: accumulate_frame(EVENTS_2D, (8, 8)), ValidationError),
    ("window_events", lambda: window_events(EVENTS[0], [1]), ValidationError),
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
    ("accumulate_frame", lambda: accumulate_frame([(1, 2, 3, 1)], (8, 8)), ValidationError),
    ("scene_br", lambda: scene_br(None), TypeError),
    ("score_frame", lambda: score_frame(FRAME, None), ValidationError),
    ("window_events", lambda: window_events(EVENTS, None), ValidationError),
    ("oms_sequence", lambda: oms_sequence([FRAME], OmsParams(), threads="x"), ParameterError),
    ("oms_sequence", lambda: oms_sequence([FRAME], OmsParams(), threads=True), ParameterError),
    ("oms_sequence", lambda: oms_sequence([RAGGED], OmsParams()), ValidationError),
    ("oms_frame", lambda: oms_frame(RAGGED, OmsParams()), ValidationError),
    ("oms_scores", lambda: oms_scores(RAGGED, OmsParams()), ValidationError),
    ("filter_frame", lambda: filter_frame(RAGGED, KERNEL), ValidationError),
    ("window_events", lambda: window_events(EVENTS.astype(OTHER_DTYPE), [1]), ValidationError),
    ("accumulate_frame", lambda: accumulate_frame(EVENTS[:1].reshape(()), (8, 8)),
     ValidationError),
    ("Kernel", lambda: Kernel(2, 1.0, RAGGED), ParameterError),
    ("Kernel", lambda: Kernel(1, 1.0, [[None, None], [None, None]]), ParameterError),
    ("evaluate_sequence", lambda: evaluate_sequence(None, [FRAME], [FRAME]), ValidationError),
    ("evaluate_sequence", lambda: evaluate_sequence([FRAME], [FRAME], [FRAME], ARRAY),
     ParameterError),
    ("OmsParams", lambda: OmsParams(mode=ARRAY), ParameterError),
    ("filter_frame", lambda: filter_frame(FRAME, KERNEL, mode=ARRAY), ParameterError),
    ("SceneObject", lambda: SceneObject(np.zeros(2), 2, (1, 1), (1, 1)), ParameterError),
    ("window_events", lambda: window_events(EVENTS, [-2**63 - 1]), ValidationError),
    ("window_events", lambda: window_events(EVENTS, [2**63]), ValidationError),
]

# Exceptions take any message, so no argument is bad.
NO_BAD_ARGUMENT = {"OmsError", "ParameterError", "ParseError", "ValidationError"}


@pytest.mark.parametrize("name, call, error", CONTRACT,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(CONTRACT)])
def test_input_contract(name, call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize("call", [
    lambda ts: window_events(EVENTS, ts),
    lambda ts: bin_events(EVENTS, ts, SensorGeometry(8, 8)),
    lambda ts: DatasetManifest((64, 48), "e", "m", ts),
], ids=["window_events", "bin_events", "manifest"])
def test_mask_timestamp_range_is_int64(call):
    # The CONTRACT rows refuse -2**63 - 1 and 2**63; both ends of int64 are accepted.
    call([-2**63, 2**63 - 1])
    with pytest.raises(ValidationError, match="mask timestamp"):
        call([-2**63 - 1])


# The public surface, pinned: an export is added or removed only on purpose.
EXPORTS = [
    "EVENT_DTYPE", "FrameScore", "Kernel", "OmsError", "OmsParams", "ParameterError", "ParseError",
    "SceneConfig", "SceneObject", "SensorGeometry", "SequenceReport", "ValidationError",
    "accumulate_frame", "bf_ratio", "detection", "evaluate_sequence", "filter_frame",
    "generate_scene", "iou", "kernel_to_text", "make_feathered_kernel", "oms_frame", "oms_scores",
    "oms_sequence", "scene_br", "score_frame", "window_events",
]


def test_exports_pinned():
    assert sorted(oms.__all__) == EXPORTS


def test_input_contract_covers_every_export():
    exported = {name for name in oms.__all__ if callable(getattr(oms, name))}
    assert {name for name, *_ in CONTRACT} | NO_BAD_ARGUMENT == exported
    assert set(FUZZ) | NO_BAD_ARGUMENT == exported


# --- the contract, fuzzed ----------------------------------------------------
#
# Every exported callable gets valid arguments with one of them (now and then
# two) replaced by junk, or one argument too few or too many. Any raise must be
# an OmsError, except the documented TypeError: a wrong argument count, or a
# foreign object where an OmsParams, Kernel or SceneConfig belongs.

BLOB = np.zeros((16, 16), np.uint8)
BLOB[5:11, 4:9] = 1
ARRAYS = [np.full((16, 16), 0.5), np.zeros((2, 16, 16)), np.full((2, 2), np.nan),
          [[None, None], [None, None]], [["a", "b"], ["c", "d"]]]


def junk(size: bool):
    """One kind of bad argument: None, a string, a float (NaN and inf too), a
    bool, a negative or huge int, a float, 3-D or non-numeric array, a ragged
    nested list, or a multi-element array where a string belongs. Where the
    argument sizes an allocation (size), no int is above 64."""
    large = st.integers(0, 64) if size else st.sampled_from([2**16, 2**63 - 1, 2**63, 2**70])
    return st.sampled_from([
        st.none(), st.text(max_size=3), st.floats(), st.just(float("nan")), st.booleans(),
        st.integers(-2**70, -1), large, st.sampled_from(ARRAYS),
        st.sampled_from([RAGGED, [[1, [2]], [3, 4]], [[1, 2], 3]]), st.just(ARRAY),
    ]).flatmap(lambda kind: kind)


def slot(valid, kind=None, size=False):
    """(kind, valid strategy, junk strategy) of one argument; kind is the type
    it must have, where a foreign object raises TypeError."""
    return kind, valid, junk(size)


FRAMES = st.sampled_from([FRAME, BLOB, BLOB.astype(bool), BLOB.tolist()])
PARAMS = st.sampled_from([OmsParams(), OmsParams(alpha=0.1),
                          OmsParams(r1=1, r2=3, s_s=2, alpha=0.05, mode="strided")])
KERNELS = st.sampled_from([KERNEL, make_feathered_kernel(1, 0.5), Kernel(1, 0.0, [[0.25] * 2] * 2),
                           Kernel(1, 1.0, np.full((2, 2), np.nan))])
CONFIGS = st.sampled_from([scene(), scene(objects=()), scene(noise_rate=2.0, seed=5)])
RECORDS = st.sampled_from([EVENTS, EVENTS[:0]])
STAMPS = st.sampled_from([[1, 2], (0,), np.array([1, 5]), []])
SIDES = st.integers(1, 64)
GEOMETRY = st.sampled_from([(8, 8), SensorGeometry(16, 8)]) | st.tuples(SIDES, SIDES)
NUMBER = st.floats(0, 4) | st.integers(0, 4)
PAIR = st.tuples(NUMBER, NUMBER)
MODES = st.sampled_from(["dense", "strided"])
KERN = (Kernel, type(None))  # either kernel may be None

FUZZ = {
    "FrameScore": [slot(NUMBER)] * 5,
    "Kernel": [slot(st.integers(1, 3), size=True), slot(NUMBER),
               slot(st.sampled_from([np.full((2, 2), 0.25), [[1, 0], [0, 1]], np.ones((4, 4))]))],
    "OmsParams": [slot(st.integers(1, 3)), slot(st.integers(2, 5)), slot(st.integers(1, 3)),
                  slot(st.floats(0, 1)), slot(st.none() | st.floats(0.2, 3)),
                  slot(st.none() | st.floats(0.2, 3)), slot(MODES)],
    "SceneConfig": [slot(GEOMETRY, size=True), slot(st.integers(2, 4), size=True),
                    slot(st.floats(0.01, 0.5)), slot(PAIR),
                    slot(st.just((SceneObject("disk", 2, (1.0, 0.0), (3.0, 4.0)),))),
                    slot(NUMBER), slot(st.integers(0, 9))],
    "SceneObject": [slot(st.sampled_from(["disk", "rect"])), slot(st.integers(1, 3), size=True),
                    slot(PAIR), slot(PAIR)],
    "SensorGeometry": [slot(SIDES, size=True)] * 2,
    "SequenceReport": [slot(NUMBER)] * 6,
    "accumulate_frame": [slot(RECORDS), slot(GEOMETRY, size=True)],
    "bf_ratio": [slot(FRAMES)] * 2,
    "detection": [slot(FRAMES)] * 2,
    "evaluate_sequence": [slot(st.lists(FRAMES, min_size=1, max_size=2))] * 3 + [slot(st.booleans())],
    "filter_frame": [slot(FRAMES), slot(KERNELS, Kernel), slot(st.integers(1, 3)), slot(MODES)],
    "generate_scene": [slot(CONFIGS, SceneConfig)],
    "iou": [slot(FRAMES)] * 2,
    "kernel_to_text": [slot(KERNELS, Kernel)],
    "make_feathered_kernel": [slot(st.integers(1, 4), size=True), slot(st.floats(0.2, 3))],
    "oms_frame": [slot(FRAMES), slot(PARAMS, OmsParams), slot(KERNELS, KERN), slot(KERNELS, KERN)],
    "oms_scores": [slot(FRAMES), slot(PARAMS, OmsParams), slot(KERNELS, KERN), slot(KERNELS, KERN)],
    "oms_sequence": [slot(st.lists(FRAMES, max_size=2)), slot(PARAMS, OmsParams), slot(SIDES)],
    "scene_br": [slot(CONFIGS, SceneConfig)],
    "score_frame": [slot(FRAMES)] * 2,
    "window_events": [slot(RECORDS), slot(STAMPS)],
}


def documented_type_error(call, args, slots) -> bool:
    """Whether TypeError is the documented outcome of call(*args)."""
    try:
        inspect.signature(call).bind(*args)
    except TypeError:
        return True
    return any(kind is not None and not isinstance(a, kind) for a, (kind, *_) in zip(args, slots))


@pytest.mark.parametrize("name", sorted(FUZZ))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_raise_is_an_oms_error(name, data):
    call, slots = getattr(oms, name), FUZZ[name]
    n = len(slots)
    arity = data.draw(st.sampled_from([n] * 8 + [n - 1, n + 1]), "arity")
    bad = {data.draw(st.integers(0, n - 1), "junk argument")}
    bad.add(data.draw(st.sampled_from([-1] * 3 + list(range(n))), "second junk argument"))
    args = [data.draw(junk if i in bad else valid, f"argument {i}")
            for i, (_, valid, junk) in enumerate(slots[:arity])]
    args += [None] * (arity - len(args))
    try:
        call(*args)
    except OmsError:
        pass
    except TypeError:
        if not documented_type_error(call, args, slots):
            raise
