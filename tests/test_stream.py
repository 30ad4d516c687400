"""`oms run` and `oms eval` read an event file in chunks and bin it one
window at a time. Most of these tests shrink the chunk to 2 or 3 records,
so that windows, runs of equal t and bad records fall across chunk
boundaries, and compare with the scan oracle and with the messages of the
in-memory path; the memory tests trace what a run holds at full size."""

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oms import dataset_io, engine
from oms.cli import main, open_frames
from oms.dataset_io import HEADER_SIZE, MAGIC, DatasetManifest, read_mask, write_dataset
from oms.errors import ParseError, ValidationError
from oms.events import SensorGeometry, bin_events
from oms.synthetic import SceneConfig, SceneObject, generate_scene

from conftest import BR1_CONFIG
from test_events import make_events, scanned_stack

GEOM = SensorGeometry(7, 5)


def write_stream(root: Path, events, timestamps, geometry=GEOM, header=GEOM) -> Path:
    """An event file of the raw records (unchecked, so bad ones can be
    written) and a manifest for it; returns the manifest's path."""
    root.mkdir(parents=True, exist_ok=True)
    head = MAGIC + np.array(header, "<u2").tobytes() + bytes(8)
    (root / "events.evt").write_bytes(head + events.tobytes())
    DatasetManifest(geometry, "events.evt", "masks", tuple(timestamps)).save(root / "manifest.json")
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
        header=st.sampled_from([GEOM, SensorGeometry(5, 4)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(ts=[1, 1, 1, 1, 1, 1, 1], bounds=[0, 1, 2], size=2, header=GEOM, seed=0)
    @example(ts=[1, 2, 3, 3, 3, 4], bounds=[3], size=3, header=GEOM, seed=0)  # after a tie
    @example(ts=[0, 5, 5, 5, 5, 9], bounds=[4, 5], size=2, header=GEOM, seed=0)  # ties
    @example(ts=[], bounds=[5, 9], size=2, header=GEOM, seed=0)  # an empty event file
    @example(ts=[0, 1, 2, 3, 4, 5], bounds=[2, 4], size=2, header=SensorGeometry(5, 4), seed=0)
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_oracle(self, ts, bounds, size, header, seed):
        # Ties of t may fall across a chunk boundary. A header smaller than the
        # manifest's geometry bounds every event, so the windows check none.
        rng = np.random.default_rng(seed)
        n = len(ts)
        ev = make_events(sorted(ts), xs=rng.integers(0, header.width, n),
                         ys=rng.integers(0, header.height, n), ps=rng.choice([-1, 1], n))
        bounds = sorted(bounds)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_io, "_CHUNK", size)
            stack = streamed(write_stream(Path(tmp), ev, bounds, header=header))
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

    def test_outside_manifest_named_by_event_index(self, tmp_path, chunk):
        # The header allows x = 5, the manifest does not: the window's bounds
        # check names the event by its index in the stream, as bin_events does.
        ev = make_events(range(9), xs=[0, 1, 2, 3, 4, 4, 4, 5, 0])
        path = write_stream(tmp_path, ev, [3, 8], geometry=SensorGeometry(5, 5))
        with pytest.raises(ValidationError) as in_memory:
            bin_events(ev, [3, 8], SensorGeometry(5, 5))
        assert str(in_memory.value) == "(x=5, y=0) outside 5x5 sensor at event 7"
        with pytest.raises(ParseError) as info:
            streamed(path)
        assert str(info.value) == f"{path.parent / 'events.evt'}: {in_memory.value}"
        # After the last timestamp it is dropped, not checked.
        path = write_stream(tmp_path, ev, [3, 6], geometry=SensorGeometry(5, 5))
        assert np.array_equal(streamed(path), scanned_stack(ev, [3, 6], SensorGeometry(5, 5)))


def test_held_memory_is_one_chunk_and_the_frame(tmp_path):
    # While a frame is handed on, the event path holds one chunk buffer: no
    # copy of its t column, whatever the number of chunks in the file.
    geometry, rng = SensorGeometry(346, 260), np.random.default_rng(3)
    n = 4 * dataset_io._CHUNK + 5
    ev = make_events(np.sort(rng.integers(0, 10**6, n)), xs=rng.integers(0, 346, n),
                     ys=rng.integers(0, 260, n), ps=rng.choice([-1, 1], n))
    path = write_stream(tmp_path, ev, range(0, 10**6, 50_000), geometry=geometry, header=geometry)
    held = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in open_frames(path, lambda stage: None)[1]:
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    budget = dataset_io._CHUNK * 13 + 346 * 260 + 48 * 1024
    assert len(held) == 20 and max(held) < budget, (max(held), budget)


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

    def test_overlays_hold_no_ground_truth(self, tmp_path):
        # `oms run --emit-overlays` checks every mask before it touches --out,
        # keeps none, and reads each again when its frame is scored: its peak
        # memory does not grow with the number of frames.
        geometry, rng = SensorGeometry(160, 120), np.random.default_rng(4)
        peaks = []
        for run, frames in enumerate((10, 10, 80)):  # the first run warms the caches
            n, ts = 4000, range(1000, 1000 * frames + 1, 1000)  # n fixed: one buffer size
            ev = make_events(np.sort(rng.integers(0, ts[-1], n)), xs=rng.integers(0, 160, n),
                             ys=rng.integers(0, 120, n), ps=rng.choice([-1, 1], n))
            masks = rng.integers(0, 2, (frames, 120, 160), np.uint8)
            manifest = write_dataset(tmp_path / f"ds{run}", ev, geometry, masks, ts)
            tracemalloc.start()
            try:
                result = run_cli("run", "--manifest", manifest, "--out", tmp_path / f"out{run}",
                                 "--alpha", 0.13, "--emit-overlays")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            assert len(list((tmp_path / f"out{run}").glob("overlay_*.pgm"))) == frames
        assert peaks[2] < peaks[1] + 64 * 1024, peaks

    def test_run_holds_one_mask(self, tmp_path):
        # At its peak a 16-frame br1 run holds the scorer's workspace, one chunk
        # buffer and a few frames (the binned frame, the mask and its 0/255
        # pixels), however many frames it writes: each mask is written as soon as
        # it is scored, and its pixels are written without a copy.
        config = replace(BR1_CONFIG, n_frames=17)
        events, masks, ts = generate_scene(config)
        manifest = write_dataset(tmp_path / "ds", events, config.geometry, masks, ts)
        scorer = engine._Scorer(config.geometry.shape, *engine.OmsParams().make_kernels())
        workspace = sum(a.nbytes for a in (scorer.padded, scorer.pair, scorer.counts, scorer.score))
        del scorer
        peaks = []
        for run in range(2):  # the first run warms the caches
            tracemalloc.start()
            try:
                result = run_cli("run", "--manifest", manifest, "--out", tmp_path / f"out{run}",
                                 "--alpha", 0.13)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
        assert len(list((tmp_path / "out1").glob("oms_*.pgm"))) == len(ts) == 16
        budget = workspace + dataset_io._CHUNK * 13 + 4 * 346 * 260
        assert peaks[1] < budget, (peaks, budget)

    @pytest.mark.parametrize("at", ["mid-stream", "after the last timestamp"])
    def test_bad_record_exits_2_without_run_json(self, scene, tmp_path, monkeypatch, at):
        # The masks written before the bad record stay on disk: each mask is
        # written as soon as it is scored, so those of all the windows that
        # closed in an earlier chunk. The run.json of the complete run before
        # this one is removed.
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
