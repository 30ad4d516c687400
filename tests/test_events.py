import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oms import (
    EVENT_DTYPE,
    SensorGeometry,
    ValidationError,
    accumulate_frame,
    window_events,
)
from oms.dataset_io import ParseError, read_events, write_dataset, write_events
from oms.events import bin_events
from oms.synthetic import generate_scene

from conftest import BR1_CONFIG, BR3_CONFIG


def make_events(ts, xs=None, ys=None, ps=None):
    n = len(ts)
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    ev["t"] = ts
    ev["x"] = xs if xs is not None else np.zeros(n)
    ev["y"] = ys if ys is not None else np.zeros(n)
    ev["p"] = ps if ps is not None else np.ones(n)
    return ev


class TestWindowEvents:
    def test_boundary_partition(self):
        ev = make_events([5, 10, 15, 20])
        windows = window_events(ev, [10, 20])
        assert [list(w["t"]) for w in windows] == [[5, 10], [15, 20]]

    def test_empty_stream(self):
        windows = window_events(np.empty(0, dtype=EVENT_DTYPE), [100])
        assert len(windows) == 1 and len(windows[0]) == 0

    def test_events_after_last_timestamp_dropped(self):
        ev = make_events([1, 2, 3, 50])
        windows = window_events(ev, [10])
        assert list(windows[0]["t"]) == [1, 2, 3]

    def test_random_stream_recount(self, rng):
        # Oracle: linear-scan recount of events at or before the last timestamp.
        ts = np.sort(rng.integers(0, 10**6, 1000))
        ev = make_events(ts)
        mask_ts = np.linspace(25_000, 10**6, 40).astype(np.int64)
        windows = window_events(ev, mask_ts)
        expected = sum(1 for t in ts if t <= mask_ts[-1])
        assert sum(len(w) for w in windows) == expected

    def test_unsorted_stream_rejected(self):
        ev = make_events([5, 3, 10])
        with pytest.raises(ValidationError, match="index 1"):
            window_events(ev, [100])

    def test_nonincreasing_timestamps_rejected(self):
        with pytest.raises(ValidationError):
            window_events(make_events([1]), [10, 10])

    @pytest.mark.parametrize("timestamps", [
        [1.5, 2.7],        # fractional: int64 casting would cut windows at 1 and 2
        [True, 2],         # bool is not an integer timestamp
        [2**64],           # does not fit int64
        ["a"],
        [float("nan")],
        [[1], [2]],        # not a flat list
    ], ids=["float", "bool", "overflow", "string", "nan", "nested"])
    @pytest.mark.parametrize("cut", ["window_events", "bin_events"])
    def test_bad_timestamp_rejected(self, cut, timestamps):
        ev = make_events([1, 2])
        with pytest.raises(ValidationError, match="mask timestamp"):
            if cut == "window_events":
                window_events(ev, timestamps)
            else:
                bin_events(ev, timestamps, SensorGeometry(4, 4))

    @given(
        ts=st.lists(st.integers(0, 10**6), min_size=0, max_size=200),
        bounds=st.lists(st.integers(0, 10**6), min_size=1, max_size=20, unique=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, ts, bounds):
        ts = sorted(ts)
        bounds = sorted(bounds)
        windows = window_events(make_events(ts), bounds)
        glued = np.concatenate([w["t"] for w in windows])
        assert list(glued) == [t for t in ts if t <= bounds[-1]]


# Anything but a 1-D array of EVENT_DTYPE records: rows that are not four
# integers, or valid rows, a record array of another shape, or records of
# another dtype.
OTHER_DTYPE = np.dtype([("t", "<i8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
BAD_EVENTS = {
    "short": [(1, 2)],
    "string": "abc",
    "negative_t": [(-1, 2, 3, 1)],
    "float_array": np.zeros(3),
    "float_t": [(1.5, 2, 3, 1)],
    "bool_t": [(True, 2, 3, 1)],
    "polarity_0": [(1, 2, 3, 0)],
    "scalar": 5,
    "valid_tuples": [(1, 2, 3, 1), (2, 0, 0, -1)],
    "2d": make_events([1, 2]).reshape(1, 2),
    "0d": make_events([1]).reshape(()),
    "record": make_events([1])[0],
    "other_dtype": np.ones(2, OTHER_DTYPE),
}


class TestEventRows:
    @pytest.mark.parametrize("events", BAD_EVENTS.values(), ids=BAD_EVENTS.keys())
    @pytest.mark.parametrize("call", [
        lambda events, tmp: accumulate_frame(events, SensorGeometry(8, 8)),
        lambda events, tmp: window_events(events, [10]),
        lambda events, tmp: bin_events(events, [10], SensorGeometry(8, 8)),
        lambda events, tmp: write_events(events, SensorGeometry(8, 8), tmp / "e.evt"),
        lambda events, tmp: write_dataset(tmp / "ds", events, SensorGeometry(8, 8), [], []),
    ], ids=["accumulate_frame", "window_events", "bin_events", "write_events", "write_dataset"])
    def test_bad_rows_rejected(self, tmp_path, call, events):
        with pytest.raises(ValidationError, match="^events must be a 1-D array of EVENT_DTYPE"):
            call(events, tmp_path)

    @pytest.mark.parametrize("p", [2, -2])
    def test_polarity_two_refused(self, tmp_path, p):
        # |p| != 1 both finds the bad record and picks the message it raises.
        ev = make_events([1, 2], ps=[1, p])
        with pytest.raises(ValidationError, match=rf"^invalid polarity p={p} at event 1$"):
            bin_events(ev, [10], SensorGeometry(4, 4))
        path = tmp_path / "e.evt"
        path.write_bytes(b"EVT1" + struct.pack("<HH", 4, 4) + b"\x00" * 8 + ev.tobytes())
        with pytest.raises(ParseError, match=rf": invalid polarity p={p} at byte offset 29$"):
            read_events(path)

    def test_record_check_names_first_bad_record(self):
        # Record 1 lies outside the sensor and record 2 has polarity 0: the
        # first of either kind is named, with its index in the whole stream.
        ev = make_events([1, 2, 3], xs=[0, 9, 0], ps=[1, 1, 0])
        with pytest.raises(ValidationError, match=r"^\(x=9, y=0\) outside 4x4 sensor at event 1$"):
            bin_events(ev, [10], SensorGeometry(4, 4))
        with pytest.raises(ValidationError, match=r"^invalid polarity p=0 at event 2$"):
            window_events(ev, [10])
        # After the last timestamp only polarity is checked, still named by stream index.
        with pytest.raises(ValidationError, match=r"^invalid polarity p=0 at event 2$"):
            bin_events(ev, [2], SensorGeometry(16, 16))
        assert bin_events(ev[:2], [1], SensorGeometry(4, 4)).sum() == 1
        # accumulate_frame checks bounds only: a record array's polarity is not its concern.
        with pytest.raises(ValidationError, match=r"^\(x=9, y=0\) outside 8x8 sensor at event 0$"):
            accumulate_frame(make_events([1], xs=[9], ps=[0]), SensorGeometry(8, 8))
        assert accumulate_frame(ev[2:], SensorGeometry(4, 4)).sum() == 1


class TestAccumulateFrame:
    GEOM = SensorGeometry(32, 32)

    def test_polarity_compression(self):
        ev = np.array([(0, 3, 4, 1), (1, 3, 4, -1)], EVENT_DTYPE)
        frame = accumulate_frame(ev, SensorGeometry(8, 8))
        assert frame.sum() == 1 and frame[4, 3] == 1

    def test_empty_window(self):
        frame = accumulate_frame(np.empty(0, dtype=EVENT_DTYPE), self.GEOM)
        assert frame.shape == (32, 32) and not frame.any()

    def test_distinct_coordinate_count(self, rng):
        ev = make_events(
            np.sort(rng.integers(0, 1000, 500)),
            xs=rng.integers(0, 32, 500),
            ys=rng.integers(0, 32, 500),
        )
        frame = accumulate_frame(ev, self.GEOM)
        distinct = {(int(x), int(y)) for x, y in zip(ev["x"], ev["y"])}
        assert int(frame.sum()) == len(distinct)

    def test_out_of_bounds_rejected(self):
        ev = np.array([(0, 40, 2, 1)], EVENT_DTYPE)
        with pytest.raises(ValidationError, match="event 0"):
            accumulate_frame(ev, self.GEOM)

    def test_pixel_index_past_u16(self):
        # y * width exceeds 65535 from row 190 of a 346x260 sensor.
        geometry = SensorGeometry(346, 260)
        ev = np.array([(0, 5, 189, 1), (1, 0, 190, 1), (2, 345, 259, -1)], EVENT_DTYPE)
        frame = accumulate_frame(ev, geometry)
        assert frame.sum() == 3 and frame[189, 5] == frame[190, 0] == frame[259, 345] == 1
        assert np.array_equal(bin_events(ev, [2], geometry), frame[None])

    def test_duplication_idempotent(self, rng):
        ev = make_events(np.sort(rng.integers(0, 100, 50)),
                         xs=rng.integers(0, 32, 50), ys=rng.integers(0, 32, 50))
        doubled = np.sort(np.concatenate([ev, ev]), order="t")
        assert np.array_equal(
            accumulate_frame(ev, self.GEOM), accumulate_frame(doubled, self.GEOM)
        )

    def test_polarity_invariance(self, rng):
        ev = make_events(np.sort(rng.integers(0, 100, 50)),
                         xs=rng.integers(0, 32, 50), ys=rng.integers(0, 32, 50))
        flipped = ev.copy()
        flipped["p"] = -flipped["p"]
        assert np.array_equal(
            accumulate_frame(ev, self.GEOM), accumulate_frame(flipped, self.GEOM)
        )


def scanned_stack(events, mask_timestamps, geometry):
    """Oracle for bin_events and accumulate_frame, in pure Python: each event
    goes to window k when t_{k-1} < t <= t_k, with t_{-1} = -1."""
    edges = [-1, *mask_timestamps]
    stack = np.zeros((len(mask_timestamps), geometry.height, geometry.width), np.uint8)
    for t, x, y, _ in events.tolist():
        for k in range(len(mask_timestamps)):
            if edges[k] < t <= edges[k + 1]:
                stack[k, y, x] = 1
    return stack


def windowed_stack(events, mask_timestamps, geometry):
    """bin_events' per-window counterpart: window_events, then
    accumulate_frame per window."""
    frames = [accumulate_frame(w, geometry) for w in window_events(events, mask_timestamps)]
    if not frames:
        return np.zeros((0, geometry.height, geometry.width), np.uint8)
    return np.stack(frames)


class TestBinEvents:
    GEOM = SensorGeometry(7, 5)

    @pytest.mark.parametrize("config", [BR1_CONFIG, BR3_CONFIG], ids=["br1", "br3"])
    def test_fixtures_match_windowed_frames(self, config):
        events, _, timestamps = generate_scene(config)
        stack = bin_events(events, timestamps, config.geometry)
        assert stack.dtype == np.uint8
        assert stack.shape == (len(timestamps), *config.geometry.shape)
        assert np.array_equal(stack, scanned_stack(events, timestamps, config.geometry))
        assert np.array_equal(stack, windowed_stack(events, timestamps, config.geometry))

    @given(
        ts=st.lists(st.integers(0, 1000), max_size=200),
        bounds=st.lists(st.integers(-100, 1100), max_size=12, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ts=[0, 0, 5, 900], bounds=[0], seed=0)            # timestamp 0, events after it
    @example(ts=[0, 3, 3, 8], bounds=[-7, -1, 3, 50], seed=1)   # negative timestamps
    @example(ts=[10, 20], bounds=[1, 2, 3], seed=2)             # empty windows, all dropped
    @example(ts=[], bounds=[5, 9], seed=3)                      # empty stream
    @settings(max_examples=100, deadline=None)
    def test_matches_windowed_frames(self, ts, bounds, seed):
        rng = np.random.default_rng(seed)
        n = len(ts)
        ev = make_events(sorted(ts), xs=rng.integers(0, 7, n), ys=rng.integers(0, 5, n),
                         ps=rng.choice([-1, 1], n))
        bounds = sorted(bounds)
        stack = bin_events(ev, bounds, self.GEOM)
        assert stack.shape == (len(bounds), 5, 7) and stack.dtype == np.uint8
        assert np.array_equal(stack, scanned_stack(ev, bounds, self.GEOM))
        assert np.array_equal(stack, windowed_stack(ev, bounds, self.GEOM))

    def test_out_of_bounds_after_last_timestamp_dropped(self):
        ev = make_events([1, 2, 30], xs=[1, 2, 99], ys=[0, 4, 99])
        assert np.array_equal(bin_events(ev, [10], self.GEOM),
                              scanned_stack(ev, [10], self.GEOM))
        assert np.array_equal(windowed_stack(ev, [10], self.GEOM),
                              scanned_stack(ev, [10], self.GEOM))

    @pytest.mark.parametrize("events, timestamps", [
        (make_events([5, 3, 10]), [100]),                           # unsorted
        (make_events([1, 2], ps=[1, 0]), [100]),                     # bad polarity
        (make_events([1, 2], ps=[1, -128]), [100]),                  # abs(-128) wraps
        (make_events([1, 2], xs=[0, 7]), [100]),                     # x out of bounds
        (make_events([1, 2], ys=[5, 0]), [1, 100]),                  # y out of bounds
        (make_events([1]), [10, 10]),                                # timestamps not increasing
    ], ids=["unsorted", "polarity", "polarity_min", "x_bounds", "y_bounds", "timestamps"])
    def test_bad_input_raises_like_windowing(self, events, timestamps):
        with pytest.raises(ValidationError):
            windowed_stack(events, timestamps, self.GEOM)
        with pytest.raises(ValidationError):
            bin_events(events, timestamps, self.GEOM)

    def test_timestamp_beyond_int64(self):
        # Sorted as u64; an int64 cast would wrap 2**63 negative and call it unsorted.
        ev = make_events([1, 2**63, 2**64 - 1])
        for cut in (lambda: bin_events(ev, [100], self.GEOM), lambda: window_events(ev, [100])):
            with pytest.raises(ValidationError, match="index 1 exceeds"):
                cut()
        ev = make_events([1, 2**63 - 1])
        assert bin_events(ev, [10, 2**63 - 1], self.GEOM).sum() == 2
