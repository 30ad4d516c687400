"""Event-stream primitives, and the one owner of the event record.

Events are DVS brightness-change records (t, x, y, p) with t in integer
microseconds and polarity p in {-1, +1}. Streams are kept as numpy
structured arrays (EVENT_DTYPE) so that windowing and accumulation are
vectorized; single records use the Event named tuple. A window is a plain
EVENT_DTYPE slice of the stream, cut by the one window rule
(_window_bounds). bin_events turns a whole stream into a (T, H, W) stack
of binary frames in one pass; window_events and accumulate_frame do the
same one window at a time.

Every rule for a record lives here: the field ranges (_RANGES), the row
check (_event_rows), the record check (_check_records), the order check
(_check_order) and the constructor from columns (_from_columns).

The accumulation step collapses both time and polarity: a pixel of the
output binary frame is 1 iff at least one event of either polarity landed
there inside the window. This mimics bipolar-cell activation feeding the
downstream center-surround stage.
"""

from __future__ import annotations

from itertools import chain
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


# The one table of field ranges, inclusive: t fits the int64 time that
# streams are windowed on, x and y their u16 fields. p is -1 or +1.
_RANGES = (("t", 0, _T_MAX), ("x", 0, _MAX_SIDE), ("y", 0, _MAX_SIDE))
_POLARITIES = (-1, 1)


def as_event_array(events: EventsLike) -> np.ndarray:
    """An EVENT_DTYPE array as it is, or the checked records of (t, x, y, p) rows."""
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE:
        return events
    return _event_rows(list(events) if np.iterable(events) else [events])


def _event_rows(rows: list, where="event {}".format) -> np.ndarray:
    """The records of rows that all pass _check_row. The rows are checked as
    one table; only a failing table is scanned row by row."""
    try:
        kinds = set(map(type, chain.from_iterable(rows)))
        if set(map(len, rows)) <= {4} and all(
                issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
            table = np.fromiter(chain.from_iterable(rows), np.int64, 4 * len(rows)).reshape(-1, 4)
            lo, hi = zip(*(r[1:] for r in _RANGES))
            if not ((table[:, :3] < lo) | (table[:, :3] > hi) | (np.abs(table[:, 3:]) != 1)).any():
                return _from_columns(*table.T)
    except (TypeError, OverflowError):  # a row that is not a sequence, a value beyond int64
        pass
    return _from_columns(*np.array([_check_row(row, where, i) for i, row in enumerate(rows)],
                                   dtype=np.int64).reshape(-1, 4).T)


def _check_row(row, where, i: int) -> tuple:
    """The row check: row as four Python ints, once they are integers (never a
    bool or a float) in _RANGES with p in _POLARITIES; else names where(i)."""
    values = tuple(row) if np.iterable(row) else ()
    if len(values) != 4 or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                   for v in values):
        raise ValidationError(f"{row!r} is not four integers (t, x, y, p) at {where(i)}")
    for (name, lo, hi), value in zip(_RANGES, values):
        if not lo <= value <= hi:
            raise ValidationError(f"{name}={value} out of range [{lo}, {hi}] at {where(i)}")
    if values[3] not in _POLARITIES:
        raise ValidationError(f"invalid polarity p={values[3]} at {where(i)}")
    return tuple(map(int, values))


def _from_columns(t, x, y, p) -> np.ndarray:
    """The EVENT_DTYPE records with columns t, x, y and p (a scalar repeats);
    values are cast unchecked, so the caller has checked them."""
    events = np.empty(len(x), dtype=EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["p"] = t, x, y, p
    return events


def _check_order(events: np.ndarray) -> np.ndarray:
    """The stream's timestamps as int64, after checking they never decrease
    and fit int64."""
    # Compared as stored (u64), so a t >= 2**63 cannot wrap negative.
    t = np.ascontiguousarray(events["t"])
    unsorted = t[1:] < t[:-1]
    if unsorted.any():
        raise ValidationError(f"event stream unsorted: t decreases at index {np.argmax(unsorted) + 1}")
    if t.size and int(t[-1]) > _T_MAX:
        i = int(np.searchsorted(t, np.uint64(_T_MAX), side="right"))
        raise ValidationError(f"timestamp {int(t[i])} at event index {i} exceeds {_T_MAX}")
    return t.view(np.int64)  # every t is at most _T_MAX, so no value changes


def _check_records(events: np.ndarray, geometry: SensorGeometry | None = None,
                   where="event {}".format, polarity: bool = True) -> None:
    """The record check: ValidationError names where(i) of the first record
    whose p is not in _POLARITIES (if polarity) or that lies outside the
    geometry (if given); bounds cost two max reductions until one fails."""
    x, y, p = events["x"], events["y"], events["p"]
    bad = polarity and np.abs(p) != 1  # abs(-128) wraps to -128 in int8: still bad
    if geometry is not None and x.size and (x.max() >= geometry.width or y.max() >= geometry.height):
        bad = bad | (x >= geometry.width) | (y >= geometry.height)
    if bad is not False and bad.any():  # False: nothing checked; np.any(False) costs ~3 us
        i = int(np.argmax(bad))
        if polarity and p[i] not in _POLARITIES:
            raise ValidationError(f"invalid polarity p={p[i]} at {where(i)}")
        raise ValidationError(f"(x={x[i]}, y={y[i]}) outside {geometry.width}x{geometry.height} "
                              f"sensor at {where(i)}")


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
    bounds = _window_bounds(_check_order(ev), mask_timestamps)
    _check_records(ev)
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
    bounds = _window_bounds(_check_order(ev), mask_timestamps)
    _check_records(ev[: bounds[-1]], geometry)
    _check_records(ev[bounds[-1] :], where=lambda i: f"event {bounds[-1] + i}")
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
    _check_records(ev, geometry, polarity=False)
    return _paint(ev, (0, len(ev)), geometry)[0]
