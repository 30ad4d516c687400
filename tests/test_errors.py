"""The one rule for numeric fields: every value type raises its own OmsError
subclass for a value of the wrong type or range, never TypeError."""

import numpy as np
import pytest

from oms import (
    EVENT_DTYPE,
    OmsError,
    OmsParams,
    ParameterError,
    SceneConfig,
    SceneObject,
    SensorGeometry,
    ValidationError,
    accumulate_frame,
    make_feathered_kernel,
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
