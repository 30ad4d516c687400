"""`oms run` and `oms eval` read an event file in chunks and bin it one
window at a time. These tests shrink the chunk to 2 or 3 records, so that
windows, runs of equal t and bad records fall across chunk boundaries, and
compare with the scan oracle and with the messages of the in-memory path."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oms import cli, dataset_io
from oms.cli import main, open_frames
from oms.dataset_io import HEADER_SIZE, MAGIC, DatasetManifest, read_mask, write_dataset
from oms.errors import ParseError, ValidationError
from oms.events import SensorGeometry, bin_events
from oms.synthetic import SceneConfig, SceneObject, generate_scene

from test_events import make_events, scanned_stack

GEOM = SensorGeometry(7, 5)


def write_stream(root: Path, events, timestamps, geometry=GEOM, header=GEOM, csv=False) -> Path:
    """An event file of the raw records (unchecked, so bad ones can be
    written) and a manifest for it; returns the manifest's path."""
    root.mkdir(parents=True, exist_ok=True)
    if csv:
        name = "events.csv"
        (root / name).write_text("t,x,y,p\n" + "".join(f"{t},{x},{y},{p}\n"
                                                       for t, x, y, p in events.tolist()))
    else:
        name = "events.evt"
        head = MAGIC + np.array(header, "<u2").tobytes() + bytes(8)
        (root / name).write_bytes(head + events.tobytes())
    DatasetManifest(geometry, name, "masks", tuple(timestamps)).save(root / "manifest.json")
    return root / "manifest.json"


def streamed(manifest_path) -> np.ndarray:
    """The frames `oms run` and `oms eval` bin from a dataset, stacked."""
    manifest, frames = open_frames(manifest_path, lambda stage: None)
    return np.array([f.copy() for f in frames], np.uint8).reshape(-1, *manifest.geometry.shape)


@pytest.fixture
def chunk(monkeypatch):
    monkeypatch.setattr(dataset_io, "_CHUNK", 3)


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestChunkBoundaries:
    @given(
        ts=st.lists(st.integers(0, 12), max_size=30),  # a few values: long runs of equal t
        bounds=st.lists(st.integers(-2, 14), max_size=8, unique=True),
        size=st.sampled_from([2, 3]),
        csv=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ts=[1, 1, 1, 1, 1, 1, 1], bounds=[0, 1, 2], size=2, csv=False, seed=0)
    @example(ts=[1, 2, 3, 3, 3, 4], bounds=[3], size=3, csv=False, seed=0)  # boundary after a tie
    @example(ts=[], bounds=[5, 9], size=2, csv=False, seed=0)             # an empty event file
    @example(ts=[], bounds=[5, 9], size=2, csv=True, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_oracle(self, ts, bounds, size, csv, seed):
        rng = np.random.default_rng(seed)
        n = len(ts)
        ev = make_events(sorted(ts), xs=rng.integers(0, 7, n), ys=rng.integers(0, 5, n),
                         ps=rng.choice([-1, 1], n))
        bounds = sorted(bounds)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_io, "_CHUNK", size)
            stack = streamed(write_stream(Path(tmp), ev, bounds, csv=csv))
        assert stack.shape == (len(bounds), 5, 7)
        assert np.array_equal(stack, scanned_stack(ev, bounds, GEOM))
        assert np.array_equal(stack, bin_events(ev, bounds, GEOM))

    @pytest.mark.parametrize("ts, index", [
        ([1, 2, 3, 2, 4, 5], 3),  # the first record of the second chunk
        ([1, 2, 3, 3, 2, 5], 4),  # inside the second chunk
        ([1, 2, 3, 4, 5, 6, 0], 6),
    ])
    def test_decrease_named_by_event_index(self, tmp_path, chunk, ts, index):
        ev = make_events(ts)
        path = write_stream(tmp_path, ev, [10])
        with pytest.raises(ValidationError) as in_memory:
            bin_events(ev, [10], GEOM)
        assert str(in_memory.value) == f"event stream unsorted: t decreases at index {index}"
        with pytest.raises(ParseError) as info:
            streamed(path)
        assert str(info.value) == f"{tmp_path / 'events.evt'}: {in_memory.value}"

    @pytest.mark.parametrize("field, value, message", [
        ("p", 5, "invalid polarity p=5"),
        ("x", 7, "(x=7, y=0) outside 7x5 sensor"),
        ("y", 9, "(x=0, y=9) outside 7x5 sensor"),
    ])
    @pytest.mark.parametrize("i", [4, 7])
    @pytest.mark.parametrize("last", [2, 8], ids=["after_windows", "in_a_window"])
    def test_bad_record_named_by_byte_offset(self, tmp_path, chunk, field, value, message, i, last):
        # Records 4 and 7 lie in the second and third chunk; header and
        # manifest share one geometry, which the reader checks every record by.
        ev = make_events(range(9))
        ev[field][i] = value
        path = write_stream(tmp_path, ev, [last])
        with pytest.raises(ParseError) as info:
            streamed(path)
        assert str(info.value) == (f"{tmp_path / 'events.evt'}: {message} "
                                   f"at byte offset {HEADER_SIZE + 13 * i}")

    @pytest.mark.parametrize("csv", [False, True], ids=["native", "csv"])
    def test_outside_manifest_named_by_event_index(self, tmp_path, chunk, csv):
        # The header allows x = 5, the manifest does not: the window's bounds
        # check names the event by its index in the stream, as bin_events does.
        ev = make_events(range(9), xs=[0, 1, 2, 3, 4, 4, 4, 5, 0])
        path = write_stream(tmp_path, ev, [3, 8], geometry=SensorGeometry(5, 5), csv=csv)
        with pytest.raises(ValidationError) as in_memory:
            bin_events(ev, [3, 8], SensorGeometry(5, 5))
        assert str(in_memory.value) == "(x=5, y=0) outside 5x5 sensor at event 7"
        with pytest.raises(ParseError) as info:
            streamed(path)
        assert str(info.value) == f"{path.parent / ('events.csv' if csv else 'events.evt')}: " \
                                  f"{in_memory.value}"
        # After the last timestamp it is dropped, not checked.
        path = write_stream(tmp_path, ev, [3, 6], geometry=SensorGeometry(5, 5), csv=csv)
        assert np.array_equal(streamed(path), scanned_stack(ev, [3, 6], SensorGeometry(5, 5)))


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 48x32, 20-frame synthetic dataset: (manifest path, events, timestamps)."""
    config = SceneConfig(geometry=SensorGeometry(48, 32), n_frames=21, bg_density=0.02,
                         camera_velocity=(1.0, 0.0),
                         objects=(SceneObject("disk", 10, (2.0, 0.0), (4.0, 16.0)),),
                         noise_rate=0.0, seed=5)
    events, masks, ts = generate_scene(config)
    manifest = write_dataset(tmp_path_factory.mktemp("scene"), events, config.geometry, masks, ts)
    return manifest, events, ts


class TestStreamedRun:
    def test_small_chunks_write_the_same_masks(self, scene, tmp_path, monkeypatch):
        manifest, _, ts = scene
        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "a", "--alpha", 0.13,
                       "--emit-overlays").exit_code == 0
        monkeypatch.setattr(dataset_io, "_CHUNK", 2)
        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "b", "--alpha", 0.13,
                       "--emit-overlays").exit_code == 0
        names = sorted(p.name for p in (tmp_path / "a").glob("*.pgm"))
        assert len(names) == 2 * len(ts)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        reports = [run_cli("eval", "--pred-dir", tmp_path / d, "--manifest", manifest).output
                   for d in ("a", "b")]
        assert reports[0] == reports[1] and json.loads(reports[0])["frames_evaluated"] > 0

    @pytest.mark.parametrize("at", ["mid-stream", "after the last timestamp"])
    def test_bad_record_exits_2_without_run_json(self, scene, tmp_path, monkeypatch, at):
        # The masks written before the bad record stay on disk: those of the
        # windows that closed in an earlier chunk, in whole write groups. The
        # run.json of the complete run before this one is removed.
        manifest, events, ts = scene
        t = events["t"]
        if at == "mid-stream":  # the first record of window 13
            i, bad = int(np.searchsorted(t, ts[12], "right")), events.copy()
            bad["p"][i] = 5
        else:
            i = len(events)
            bad = np.concatenate([events, make_events([max(t[-1], ts[-1]) + 1], ps=[5])])
        # The windows whose closing record lies in a chunk of 3 before the bad one's.
        closed = int(np.sum(np.searchsorted(t, ts, "right") // 3 < i // 3))
        closed -= closed % cli._WRITE_GROUP
        assert 0 < closed < len(ts)
        ds = write_stream(tmp_path / "ds", bad, ts, geometry=SensorGeometry(48, 32),
                          header=SensorGeometry(48, 32))
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_cli("run", "--manifest", manifest, "--out", out).exit_code == 0  # alpha 0.96
        assert run_cli("run", "--manifest", manifest, "--out", fresh,
                       "--alpha", 0.13).exit_code == 0
        monkeypatch.setattr(dataset_io, "_CHUNK", 3)
        result = run_cli("run", "--manifest", ds, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 2, result.output
        assert result.output == (f"error: {ds.parent / 'events.evt'}: invalid polarity p=5 "
                                 f"at byte offset {HEADER_SIZE + 13 * i}\n")
        assert not (out / "run.json").exists()
        for k in range(len(ts)):  # this run's masks, then the empty ones of the run before
            mask = read_mask(out / f"oms_{k:05d}.pgm")
            assert np.array_equal(mask, read_mask(fresh / f"oms_{k:05d}.pgm") if k < closed
                                  else np.zeros_like(mask))
        assert any(read_mask(fresh / f"oms_{k:05d}.pgm").any() for k in range(closed))
