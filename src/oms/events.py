"""Event-stream primitives, and the one owner of the event record.

Events are DVS brightness-change records (t, x, y, p) with t in integer
microseconds and polarity p in {-1, +1}. A stream is a 1-D numpy
structured array of EVENT_DTYPE records, the one in-memory event type, so
that windowing and accumulation are vectorized. One frame iterator
(_frames) bins a stream that arrives in chunks, yielding each window's
binary frame as soon as the window closes: `oms run` and `oms eval` feed it
an event file one read at a time, and bin_events stacks its frames over one
in-memory chunk. window_events and accumulate_frame work one window at a time.

Every rule for a record lives here: the input check (_as_events), the
record check (_check_records), the order check (_check_order) and the
constructor from columns (_from_columns).

The accumulation step collapses both time and polarity: a pixel of the
output binary frame is 1 iff at least one event of either polarity landed
there inside the window. This mimics bipolar-cell activation feeding the
downstream center-surround stage.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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


def _as_events(events) -> np.ndarray:
    """events, once it is a 1-D array of EVENT_DTYPE records, the one in-memory
    event type; else ValidationError names what it was given."""
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE and events.ndim == 1:
        return events
    what = (f"an array of shape {events.shape} and dtype {events.dtype}"
            if isinstance(events, np.ndarray) else type(events).__name__)
    raise ValidationError(f"events must be a 1-D array of EVENT_DTYPE records, got {what}")


def _from_columns(t, x, y, p) -> np.ndarray:
    """The EVENT_DTYPE records with columns t, x, y and p (a scalar repeats);
    values are cast unchecked, so the caller has checked them."""
    events = np.empty(len(x), dtype=EVENT_DTYPE)
    events["t"], events["x"], events["y"], events["p"] = t, x, y, p
    return events


def _check_order(events: np.ndarray, start: int = 0, last: int = 0) -> np.ndarray:
    """The timestamps of events as an int64 view of their field, after checking
    they never decrease from last on and fit int64; errors name an event by
    its index in a stream whose event start is events[0]."""
    # Compared in place as stored (u64), so a t >= 2**63 cannot wrap negative.
    t = events["t"]
    first = t.size and int(t[0]) < last  # event 0 against the last t before it
    unsorted = t[1:] < t[:-1]  # event i + 1 against event i
    if first or unsorted.any():
        i = start if first else start + 1 + int(unsorted.argmax())
        raise ValidationError(f"event stream unsorted: t decreases at index {i}")
    if t.size and int(t[-1]) > _T_MAX:
        i = int(np.searchsorted(t, np.uint64(_T_MAX), side="right"))
        raise ValidationError(f"timestamp {int(t[i])} at event index {start + i} exceeds {_T_MAX}")
    return t.view("<i8")  # every t is at most _T_MAX, so no value changes; a view, not a copy


def _check_records(events: np.ndarray, geometry: SensorGeometry | None = None,
                   where="event {}".format, polarity: bool = True) -> None:
    """The record check: ValidationError names where(i) of the first record
    whose p is not -1 or 1 (if polarity) or that lies outside the
    geometry (if given); bounds cost two max reductions until one fails."""
    x, y, p = events["x"], events["y"], events["p"]
    bad = polarity and np.abs(p) != 1  # abs(-128) wraps to -128 in int8: still bad
    if geometry is not None and x.size and (x.max() >= geometry.width or y.max() >= geometry.height):
        bad = bad | (x >= geometry.width) | (y >= geometry.height)
    if bad is not False and bad.any():  # False: nothing checked; np.any(False) costs ~3 us
        i = int(np.argmax(bad))
        if polarity and abs(int(p[i])) != 1:  # the rule that found it, on a Python int
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


def window_events(stream: np.ndarray, mask_timestamps: Sequence[int]) -> list[np.ndarray]:
    """Partition a sorted stream into one window per mask timestamp.

    Window k is the EVENT_DTYPE slice of the stream with t in
    (t_{k-1}, t_k], with t_0 = -1 so the first window takes everything up
    to and including the first timestamp. Events after the last timestamp
    are dropped (no ground truth exists for them).
    """
    ev = _as_events(stream)
    ends = _window_ends(_check_order(ev), _check_timestamps(mask_timestamps))
    bounds = np.concatenate(([0], ends))
    _check_records(ev)
    return [ev[bounds[k] : bounds[k + 1]] for k in range(len(bounds) - 1)]


def _window_ends(t: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The window rule: window k takes the t in (ts[k - 1], ts[k]] of a sorted
    int64 time column t, and ends before index _window_ends(t, ts)[k]."""
    return np.searchsorted(t, ts, side="right")


def bin_events(
    stream: np.ndarray, mask_timestamps: Sequence[int], geometry: SensorGeometry
) -> np.ndarray:
    """Bin a sorted stream into one binary frame per mask timestamp.

    Returns a (T, height, width) uint8 stack whose frame k equals
    accumulate_frame(window_events(stream, mask_timestamps)[k], geometry).
    Order and polarity are checked over the whole stream, bounds over the
    events that land in a window.
    """
    geometry = _as_geometry(geometry)
    ts = _check_timestamps(mask_timestamps)
    stack = np.empty((len(ts), *geometry.shape), dtype=np.uint8)
    for k, frame in enumerate(_frames([_as_events(stream)], ts, geometry, polarity=True)):
        stack[k] = frame
    return stack


def _frames(chunks, ts: np.ndarray, geometry: SensorGeometry, polarity: bool = False,
            bounds: bool = True):
    """The binary frame of each mask timestamp of ts (int64, increasing) as
    soon as its window closes, in one buffer reused until the next frame and
    allocated by this call, from the EVENT_DTYPE chunks of one stream, read
    to their end. Each chunk gets the order check from the last t before it,
    and the record check, naming an event by stream index: bounds for the
    events in a window, and polarity, if asked."""
    try:
        frame = np.zeros(geometry.height * geometry.width, dtype=np.uint8)
    except MemoryError as exc:
        raise MemoryError(f"one {geometry.width}x{geometry.height} frame (of {len(ts)}) cannot "
                          f"be allocated: {exc}") from None
    return _fill(frame, chunks, ts, geometry, polarity, geometry if bounds else None)


def _fill(frame: np.ndarray, chunks, ts: np.ndarray, geometry: SensorGeometry, polarity: bool,
          bounds: SensorGeometry | None):
    """_frames' generator, over its flat frame buffer; bounds checks window events if set."""
    k = start = last = 0  # the open window; the stream index and the last t before a chunk
    for events in chunks:
        t = _check_order(events, start, last)
        closed = k + int(np.searchsorted(ts[k:], t[-1])) if t.size else k  # close in this chunk
        cuts = _window_ends(t, ts[k:closed + 1])
        end = cuts[-1] if cuts.size else 0  # the events after it follow the last timestamp
        _check_records(events[:end], bounds, lambda i: f"event {start + i}", polarity)
        _check_records(events[end:], None, lambda i: f"event {start + end + i}", polarity)
        for lo, hi in zip((0, *cuts), cuts):
            _set_pixels(frame, events[lo:hi], geometry.width)
            if k < closed:
                yield frame.reshape(geometry.shape)
                frame[:], k = 0, k + 1
        start, last = start + t.size, int(t[-1]) if t.size else last
    for k in range(k, len(ts)):  # the open window, then those after the last event
        yield frame.reshape(geometry.shape)
        frame[:] = 0


def _set_pixels(frame: np.ndarray, events: np.ndarray, width: int) -> None:
    """Set pixel y * width + x of the flat frame for every event."""
    index = events["y"].astype(np.intp)  # not u16: y * width may exceed 65535
    index *= width
    index += events["x"]
    frame[index] = 1


def accumulate_frame(window: np.ndarray, geometry: SensorGeometry) -> np.ndarray:
    """Collapse a window into a binary frame: pixel = 1 iff any event hit it.

    Polarity is ignored ("compressed") on purpose. Returns a uint8 array of
    shape (height, width) with values in {0, 1}.
    """
    geometry = _as_geometry(geometry)
    ev = _as_events(window)
    _check_records(ev, geometry, polarity=False)
    frame = np.zeros(geometry.shape, dtype=np.uint8)
    _set_pixels(frame.reshape(-1), ev, geometry.width)
    return frame
