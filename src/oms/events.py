"""Event-stream primitives.

Events are DVS brightness-change records (t, x, y, p) with t in integer
microseconds and polarity p in {-1, +1}. Streams are kept as numpy
structured arrays (EVENT_DTYPE) so that windowing and accumulation are
vectorized; single records use the Event named tuple. A window is a plain
EVENT_DTYPE slice of the stream, cut by the one window rule
(_window_bounds). bin_events turns a whole stream into a (T, H, W) stack
of binary frames in one pass; window_events and accumulate_frame do the
same one window at a time.

The accumulation step collapses both time and polarity: a pixel of the
output binary frame is 1 iff at least one event of either polarity landed
there inside the window. This mimics bipolar-cell activation feeding the
downstream center-surround stage.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ValidationError, _check_number, _json

# 13 bytes packed, little-endian: matches the on-disk record layout exactly.
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
assert EVENT_DTYPE.itemsize == 13
# Largest timestamp a stream may hold: windows are cut on int64 time.
_T_MAX = int(np.iinfo(np.int64).max)
# Largest sensor width or height: both are u16 in the event file header.
_MAX_SIDE = 0xFFFF


class SensorGeometry(NamedTuple):
    width: int
    height: int

    def validate(self) -> "SensorGeometry":
        """This geometry with Python int sides, once width and height are
        integers in [1, _MAX_SIDE]."""
        return SensorGeometry(*(int(_check_number(ValidationError, name, value, True, 1, _MAX_SIDE))
                                for name, value in zip(self._fields, self)))

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) shape of frames on this sensor."""
        return (self.height, self.width)


def _as_geometry(geometry) -> SensorGeometry:
    """The checked SensorGeometry of a (width, height) pair."""
    try:
        width, height = geometry
    except (TypeError, ValueError):
        raise ValidationError(
            f"geometry must be a (width, height) pair, got {geometry!r}") from None
    return SensorGeometry(width, height).validate()


def _decode_geometry(doc) -> SensorGeometry:
    """The checked geometry of a JSON {"width": W, "height": H} object."""
    return SensorGeometry(_json("geometry", doc)["width"], doc["height"]).validate()


class Event(NamedTuple):
    t: int
    x: int
    y: int
    p: int


EventsLike = Union[np.ndarray, Sequence[Event], Sequence[tuple]]


def as_event_array(events: EventsLike) -> np.ndarray:
    """Coerce a sequence of Event tuples (or a structured array) to EVENT_DTYPE."""
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE:
        return events
    rows = [tuple(e) for e in events]
    if not rows:
        return np.empty(0, dtype=EVENT_DTYPE)
    return np.array(rows, dtype=EVENT_DTYPE)


def _check_order_and_polarity(events: np.ndarray) -> np.ndarray:
    """The stream's timestamps as int64, after checking they never decrease,
    fit int64 and that every polarity is -1 or +1."""
    # Compared as stored (u64), so a t >= 2**63 cannot wrap negative.
    t = np.ascontiguousarray(events["t"])
    unsorted = t[1:] < t[:-1]
    if unsorted.any():
        raise ValidationError(
            f"event stream unsorted: t decreases at index {int(np.argmax(unsorted)) + 1}"
        )
    if t.size and int(t[-1]) > _T_MAX:
        i = int(np.searchsorted(t, np.uint64(_T_MAX), side="right"))
        raise ValidationError(f"timestamp {int(t[i])} at event index {i} exceeds {_T_MAX}")
    bad_p = np.abs(events["p"]) != 1  # abs(-128) wraps to -128 in int8: still bad
    if bad_p.any():
        raise ValidationError(f"invalid polarity at event index {int(np.argmax(bad_p))}")
    return t.view(np.int64)  # every t is at most _T_MAX, so no value changes


def _check_bounds(events: np.ndarray, geometry: SensorGeometry) -> None:
    x, y = events["x"], events["y"]
    if x.size and (int(x.max()) >= geometry.width or int(y.max()) >= geometry.height):
        i = int(np.argmax((x >= geometry.width) | (y >= geometry.height)))
        raise ValidationError(
            f"event {i} at (x={int(x[i])}, y={int(y[i])}) "
            f"outside {geometry.width}x{geometry.height} sensor"
        )


def _check_timestamps(mask_timestamps: Sequence[int]) -> np.ndarray:
    """Mask timestamps as int64, once each is an integer that fits int64 and
    they strictly increase; else raises ValidationError."""
    if not np.iterable(mask_timestamps):
        raise ValidationError("mask timestamps must be a sequence of integers, "
                              f"got {type(mask_timestamps).__name__}")
    ts = np.array([_check_number(ValidationError, "mask timestamp", t, True, -_T_MAX - 1, _T_MAX)
                   for t in mask_timestamps], dtype=np.int64)
    if np.any(ts[1:] <= ts[:-1]):
        raise ValidationError("mask timestamps must be strictly increasing")
    return ts


def _window_bounds(t: np.ndarray, mask_timestamps: Sequence[int]) -> np.ndarray:
    """The window rule, for a sorted int64 time column: window k is
    events[bounds[k]:bounds[k + 1]] for the returned bounds."""
    ts = _check_timestamps(mask_timestamps)
    return np.concatenate(([0], np.searchsorted(t, ts, side="right")))


def window_events(stream: EventsLike, mask_timestamps: Sequence[int]) -> list[np.ndarray]:
    """Partition a sorted stream into one window per mask timestamp.

    Window k is the EVENT_DTYPE slice of the stream with t in
    (t_{k-1}, t_k], with t_0 = -1 so the first window takes everything up
    to and including the first timestamp. Events after the last timestamp
    are dropped (no ground truth exists for them).
    """
    ev = as_event_array(stream)
    bounds = _window_bounds(_check_order_and_polarity(ev), mask_timestamps)
    return [ev[bounds[k] : bounds[k + 1]] for k in range(len(bounds) - 1)]


def bin_events(
    stream: EventsLike, mask_timestamps: Sequence[int], geometry: SensorGeometry
) -> np.ndarray:
    """Bin a sorted stream into one binary frame per mask timestamp.

    Returns a (T, height, width) uint8 stack whose frame k equals
    accumulate_frame(window_events(stream, mask_timestamps)[k], geometry).
    Order and polarity are checked once over the whole stream, bounds
    over the events that land in a window.
    """
    geometry = _as_geometry(geometry)
    ev = as_event_array(stream)
    bounds = _window_bounds(_check_order_and_polarity(ev), mask_timestamps)
    _check_bounds(ev[: bounds[-1]], geometry)
    return _paint(ev, bounds, geometry)


def _paint(events: np.ndarray, bounds, geometry: SensorGeometry) -> np.ndarray:
    """A (len(bounds) - 1, height, width) uint8 stack whose frame k has pixel
    y * width + x set for every event of events[bounds[k]:bounds[k + 1]]; the
    index temporaries are one window long."""
    stack = np.zeros((len(bounds) - 1, *geometry.shape), dtype=np.uint8)
    for k, frame in enumerate(stack.reshape(len(stack), geometry.height * geometry.width)):
        window = events[bounds[k] : bounds[k + 1]]
        index = window["y"].astype(np.intp)
        index *= geometry.width
        index += window["x"]
        frame[index] = 1
    return stack


def accumulate_frame(window: EventsLike, geometry: SensorGeometry) -> np.ndarray:
    """Collapse a window into a binary frame: pixel = 1 iff any event hit it.

    Polarity is ignored ("compressed") on purpose. Returns a uint8 array of
    shape (height, width) with values in {0, 1}.
    """
    geometry = _as_geometry(geometry)
    ev = as_event_array(window)
    _check_bounds(ev, geometry)
    return _paint(ev, (0, len(ev)), geometry)[0]
