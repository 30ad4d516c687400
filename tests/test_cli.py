import errno
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oms import cli, engine
from oms.cli import main
from oms.dataset_io import (
    DatasetManifest, ParseError, _write_pgm, import_evimo, mask_filename, read_events, read_mask,
    write_dataset,
)
from oms.engine import OmsParams, oms_frame
from oms.events import accumulate_frame, window_events
from oms.synthetic import SceneConfig, SceneObject, generate_scene
from oms.events import EVENT_DTYPE, SensorGeometry

from conftest import thread_starts
from test_dataset_io import build_evimo_fixture


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small synthetic dataset on disk (12 frames, 64x48)."""
    config = SceneConfig(
        geometry=SensorGeometry(64, 48),
        n_frames=13,
        bg_density=0.01,
        camera_velocity=(1.0, 0.0),
        objects=(SceneObject("disk", 20, (1.0, 0.0), (0.0, 24.0)),),
        noise_rate=0.0,
        seed=3,
    )
    events, masks, ts = generate_scene(config)
    out = tmp_path_factory.mktemp("dataset")
    manifest_path = write_dataset(out, events, config.geometry, masks, ts)
    return manifest_path, len(masks)


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestRun:
    def test_writes_one_mask_per_timestamp(self, dataset, tmp_path):
        manifest_path, n = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 0, result.output
        assert len(list(out.glob("oms_*.pgm"))) == n
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["params"]["alpha"] == 0.13
        assert run_doc["frames"] == n

    def test_missing_manifest_exit_2(self, tmp_path):
        result = run_cli("run", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "manifest not found" in result.output

    def test_rerun_byte_identical(self, dataset, tmp_path):
        manifest_path, n = dataset
        outs = []
        for name, threads in (("a", []), ("b", ["--threads", 2])):
            out = tmp_path / name
            result = run_cli("run", "--manifest", manifest_path, "--out", out,
                             "--alpha", 0.13, *threads)
            assert result.exit_code == 0, result.output
            outs.append(out)
        for i in range(n):
            f = mask_filename(i).replace("mask", "oms")
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_flags_override_config_file(self, dataset, tmp_path):
        manifest_path, _ = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "r2": 5}))
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out,
                         "--config", cfg, "--alpha", 0.25)
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "run.json").read_text())
        assert doc["params"]["alpha"] == 0.25  # flag wins
        assert doc["params"]["r2"] == 5        # config file beats default

    def test_overlays(self, dataset, tmp_path):
        manifest_path, n = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--emit-overlays")
        assert result.exit_code == 0, result.output
        assert len(list(out.glob("overlay_*.pgm"))) == n

    def test_overlay_bytes(self, dataset, tmp_path):
        # Hand-built composite: frame | frame AND gt | frame AND pred, 0/255,
        # with a one-pixel 128 column between panels.
        manifest_path, n = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out,
                         "--alpha", 0.13, "--emit-overlays")
        assert result.exit_code == 0, result.output
        manifest = DatasetManifest.load(manifest_path)
        events = read_events(manifest_path.parent / manifest.event_file)
        windows = window_events(events, manifest.mask_timestamps)
        h, w = 48, 64
        for i, window in enumerate(windows):
            frame = accumulate_frame(window, manifest.geometry)
            gt = read_mask(manifest_path.parent / "masks" / mask_filename(i))
            pred = read_mask(out / f"oms_{i:05d}.pgm")
            rows = []
            for y in range(h):
                row = [255 * int(frame[y, x]) for x in range(w)] + [128]
                row += [255 * int(frame[y, x] and gt[y, x]) for x in range(w)] + [128]
                row += [255 * int(frame[y, x] and pred[y, x]) for x in range(w)]
                rows.append(bytes(row))
            expected = f"P5\n{3 * w + 2} {h}\n255\n".encode() + b"".join(rows)
            assert (out / f"overlay_{i:05d}.pgm").read_bytes() == expected
        assert any(read_mask(out / f"oms_{i:05d}.pgm").any() for i in range(n))

    def test_timings_recorded(self, dataset, tmp_path):
        manifest_path, _ = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--emit-overlays")
        assert result.exit_code == 0, result.output
        timings = json.loads((out / "run.json").read_text())["timings_ms"]
        assert set(timings) == {"load", "bin", "score", "write"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())

    def test_score_ms_is_the_frame_call(self, dataset, tmp_path, monkeypatch):
        # diagnostics[i].score_ms times frame i's oms_frame call, and no other.
        calls = []

        def slow_third(*args):
            calls.append(None)
            if len(calls) == 3:
                time.sleep(0.02)
            return oms_frame(*args)

        manifest_path, n = dataset
        monkeypatch.setattr(engine, "oms_frame", slow_third)
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 0, result.output
        score_ms = [d["score_ms"] for d in json.loads((out / "run.json").read_text())["diagnostics"]]
        assert len(score_ms) == n and score_ms[2] >= 20
        assert all(ms < 20 for i, ms in enumerate(score_ms) if i != 2), score_ms

    def test_kernel_build_not_in_score_ms(self, dataset, tmp_path, monkeypatch):
        # The kernels are built once, before frame 0's call: their time counts
        # in timings_ms.score but not in score_ms[0].
        make_kernels = OmsParams.make_kernels

        def slow_kernels(params):
            time.sleep(0.03)
            return make_kernels(params)

        manifest_path, _ = dataset
        monkeypatch.setattr(OmsParams, "make_kernels", slow_kernels)
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out)
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "run.json").read_text())
        assert doc["timings_ms"]["score"] >= 30 and doc["diagnostics"][0]["score_ms"] < 30

    @pytest.mark.parametrize("frames", [0, 1])
    def test_one_diagnostic_per_frame(self, tmp_path, frames):
        # A one-frame dataset has one entry, its first frame counted too; an
        # empty one runs to an empty list.
        events = np.array([(5, 3, 4, 1)], dtype=EVENT_DTYPE)[:frames]
        manifest_path = write_dataset(tmp_path / "ds", events, SensorGeometry(64, 48),
                                      [np.zeros((48, 64), np.uint8)] * frames, [10] * frames)
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out)
        assert result.exit_code == 0, result.output
        doc = strict_json((out / "run.json").read_text())
        assert doc["frames"] == frames and len(doc["diagnostics"]) == frames
        assert all(d["score_ms"] > 0 for d in doc["diagnostics"])

    def test_score_ms_sums_to_at_most_the_score_stage(self, dataset, tmp_path):
        # Each entry is rounded to 3 decimals, up by at most half a
        # microsecond; the kernel build, in the stage but in no entry, covers
        # the stage's own rounding.
        manifest_path, n = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--emit-overlays")
        assert result.exit_code == 0, result.output
        doc = strict_json((out / "run.json").read_text())
        assert [set(d) for d in doc["diagnostics"]] == [{"score_ms"}] * n
        assert all(isinstance(d["score_ms"], float) and d["score_ms"] >= 0
                   for d in doc["diagnostics"])
        assert sum(d["score_ms"] for d in doc["diagnostics"]) <= (
            doc["timings_ms"]["score"] + 0.0005 * n)

    def test_ground_truth_not_read(self, dataset, tmp_path):
        # Without --emit-overlays, run needs the events but not the masks.
        manifest_path, n = dataset
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "events.evt").write_bytes((manifest_path.parent / "events.evt").read_bytes())
        (ds / "manifest.json").write_text(manifest_path.read_text())
        result = run_cli("run", "--manifest", ds / "manifest.json", "--out", tmp_path / "run")
        assert result.exit_code == 0, result.output
        assert len(list((tmp_path / "run").glob("oms_*.pgm"))) == n

    def test_unreadable_ground_truth_writes_nothing(self, dataset, tmp_path):
        # With --emit-overlays the masks are read before any prediction is scored
        # or written, so an unreadable mask leaves no partial output behind.
        manifest_path, _ = dataset
        ds = tmp_path / "ds"
        shutil.copytree(manifest_path.parent, ds)
        (ds / "masks" / mask_filename(1)).unlink()
        (ds / "masks" / mask_filename(1)).mkdir()
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", ds / "manifest.json", "--out", out,
                         "--emit-overlays")
        assert result.exit_code == 2, result.output
        assert not list(out.glob("oms_*.pgm"))

    def test_rerun_into_same_out(self, dataset, tmp_path):
        # The second pass overwrites every file of the first in place: masks
        # stay byte-identical, and overlays written over longer files are cut
        # to the length a fresh directory gets.
        manifest_path, n = dataset
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        args = ["run", "--manifest", manifest_path, "--alpha", 0.13]
        assert run_cli(*args, "--out", out).exit_code == 0
        first = {i: (out / f"oms_{i:05d}.pgm").read_bytes() for i in range(n)}
        for i in range(n):
            (out / f"overlay_{i:05d}.pgm").write_bytes(b"\xff" * 20_000)
        result = run_cli(*args, "--out", out, "--emit-overlays")
        assert result.exit_code == 0, result.output
        assert run_cli(*args, "--out", fresh, "--emit-overlays").exit_code == 0
        for i in range(n):
            assert (out / f"oms_{i:05d}.pgm").read_bytes() == first[i]
            overlay = (out / f"overlay_{i:05d}.pgm").read_bytes()
            assert len(overlay) < 20_000
            assert overlay == (fresh / f"overlay_{i:05d}.pgm").read_bytes()
        assert json.loads((out / "run.json").read_text())["emit_overlays"] is True

    def test_rerun_without_overlays_removes_them(self, dataset, tmp_path):
        manifest_path, n = dataset
        out = tmp_path / "run"
        args = ["run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13]
        assert run_cli(*args, "--emit-overlays").exit_code == 0
        assert len(list(out.glob("overlay_*.pgm"))) == n
        result = run_cli(*args)
        assert result.exit_code == 0, result.output
        assert not list(out.glob("overlay_*.pgm"))
        assert len(list(out.glob("oms_*.pgm"))) == n

    def test_shorter_rerun_removes_stale_masks(self, dataset, tmp_path):
        # A 3-frame run into the --out of a 12-frame run leaves 3 masks (and
        # overlays, with --emit-overlays); the files it rewrites keep their
        # inode (overwritten in place), and files of other names are kept. A
        # mask or overlay name stays only as PATTERN.format(i) for an i < 3:
        # oms_000001.pgm (index 1, one digit too many) and oms_00003.pgm are
        # removed, and so is overlay_00001.pgm by a run without overlays.
        manifest_path, n = dataset
        short = dataset_copy(manifest_path, tmp_path / "short")
        doc = json.loads(short.read_text())
        short.write_text(json.dumps({**doc, "mask_timestamps": doc["mask_timestamps"][:3]}))
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", manifest_path, "--out", out,
                       "--emit-overlays").exit_code == 0
        kept = [out / "notes.txt", out / "oms_final.pgm", out / "oms_0001.pgm"]
        for path in kept:
            path.write_text("keep")
        inode = (out / "oms_00000.pgm").stat().st_ino
        for overlays in (["--emit-overlays"], []):
            for name in ("oms_000001.pgm", "oms_00003.pgm", "overlay_00001.pgm"):
                (out / name).write_text("stale")
            result = run_cli("run", "--manifest", short, "--out", out, *overlays)
            assert result.exit_code == 0, result.output
            overlay_names = [f"overlay_{i:05d}.pgm" for i in range(3)] if overlays else []
            assert sorted(p.name for p in out.glob("o*_0*.pgm")) == sorted(
                [f"oms_{i:05d}.pgm" for i in range(3)] + overlay_names + ["oms_0001.pgm"])
            assert all(path.read_text() == "keep" for path in kept)
            assert (out / "oms_00000.pgm").stat().st_ino == inode

    def test_failed_rerun_leaves_no_run_json(self, dataset, tmp_path):
        # run.json is removed before the first mask is written and written
        # last, so a run that stops part way leaves none behind.
        manifest_path, _ = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 0, result.output
        dir_in_place_of(out / "oms_00003.pgm")
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.0)
        assert result.exit_code == 2, result.output
        assert "oms_00003.pgm" in result.output
        assert not (out / "run.json").exists()

    def test_rejected_input_keeps_previous_run(self, dataset, tmp_path):
        # Input errors stop the run before --out is touched.
        manifest_path, _ = dataset
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", manifest_path, "--out", out).exit_code == 0
        before = (out / "run.json").read_bytes()
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 2)
        assert result.exit_code == 2, result.output
        assert (out / "run.json").read_bytes() == before

    @pytest.mark.parametrize("config, flags", [
        ({"r1": "2"}, []),
        ({"r1": 2.0}, []),
        ({"alpha": "0.5"}, []),
        ({"alpha": True}, []),
        ({"mode": 3}, []),
        ([1, 2], []),
        ("dense", []),
        ({}, ["--threads", "abc"]),
        ({}, ["--threads", "0"]),
        ({}, ["--threads", "auto"]),
        ({}, ["--threads", "2.5"]),
        ({}, ["--threads", "-1"]),
        ({"sigma_c": float("inf")}, []),
        ({"sigma_s": float("nan")}, []),
        ({}, ["--sigma-s", "inf"]),
    ])
    def test_bad_config_or_threads_exit_2(self, dataset, tmp_path, config, flags):
        manifest_path, _ = dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run_cli("run", "--manifest", manifest_path, "--out", tmp_path / "run",
                         "--config", cfg, *flags)
        assert result.exit_code == 2, result.output
        assert "internal error" not in result.output

    @pytest.mark.parametrize("config, flags", [
        (None, []),
        ({"threads": 4}, []),  # not read: ignored like any unknown key
        (None, ["--threads", "2"]),  # checked, then ignored
    ], ids=["default", "config_threads", "flag_threads"])
    def test_run_starts_no_thread(self, dataset, tmp_path, config, flags):
        manifest_path, _ = dataset
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = ["--config", tmp_path / "cfg.json", *flags]
        out = tmp_path / "run"
        with thread_starts() as started:
            result = run_cli("run", "--manifest", manifest_path, "--out", out, *flags)
        assert result.exit_code == 0, result.output
        assert started == []
        assert "threads" not in json.loads((out / "run.json").read_text())

    def test_import_loads_no_thread_pool(self):
        # A fresh interpreter: the test session itself may have loaded it.
        code = "import oms.cli, sys; assert 'concurrent.futures' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]

    @pytest.mark.parametrize("alpha, warnings", [(0.96, 1), (0.13, 0)])
    def test_alpha_that_cannot_fire_warns_once(self, dataset, tmp_path, caplog, alpha, warnings):
        manifest_path, _ = dataset
        with caplog.at_level(logging.WARNING, logger="oms"):
            result = run_cli("run", "--manifest", manifest_path, "--out", tmp_path / "run",
                             "--alpha", alpha)
        assert result.exit_code == 0, result.output
        spike = [r for r in caplog.records if "no pixel can spike" in r.getMessage()]
        assert len(spike) == warnings and len(caplog.records) == warnings

    def test_out_of_memory_exit_2(self, dataset, tmp_path, monkeypatch):
        # The first frame cannot be allocated: no allocation is made for real.
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        manifest_path, n = dataset
        monkeypatch.setattr(np, "zeros", no_memory)
        result = run_cli("run", "--manifest", manifest_path, "--out", tmp_path / "run")
        assert result.exit_code == 2, result.output
        assert result.output == (f"error: one 64x48 frame (of {n}) cannot be allocated: "
                                 f"Unable to allocate an array with shape {64 * 48}\n")
        assert not (tmp_path / "run" / "run.json").exists()

    def test_out_of_memory_leaves_earlier_run(self, dataset, tmp_path, monkeypatch):
        # The frame is allocated before --out is touched: a complete earlier
        # run keeps its run.json and its masks, byte for byte.
        manifest_path, n = dataset
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", manifest_path, "--out", out).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == n + 1 and "run.json" in before

        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "zeros", no_memory)
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 2, result.output
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_workspace_out_of_memory_leaves_earlier_run(self, dataset, tmp_path, monkeypatch):
        # The frame (64x48 bytes) fits under the cap; the scorer's workspace,
        # allocated by _segment before --out is touched, does not: exit 2 with
        # its geometry and bytes, and a complete earlier run kept byte for byte.
        manifest_path, n = dataset
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", manifest_path, "--out", out).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == n + 1 and "run.json" in before

        def capped(allocate):
            def allocate_below(shape, dtype=float, *args, **kwargs):
                if np.prod(shape) * np.dtype(dtype).itemsize > 2 * 64 * 48:
                    raise MemoryError(f"Unable to allocate an array with shape {shape}")
                return allocate(shape, dtype, *args, **kwargs)
            return allocate_below

        monkeypatch.setattr(np, "zeros", capped(np.zeros))
        monkeypatch.setattr(np, "empty", capped(np.empty))
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        assert result.exit_code == 2, result.output
        # 8x8 kernels: rows of 64 + 7; 56 padded rows, 48 rows + 7 of row-pair
        # sum, and per position 7 uint8 group counts and the int16 score.
        nbytes = 56 * 71 + (48 * 71 + 7) + 48 * 71 * (7 + 2)
        assert result.output == (f"error: the scorer's workspace for 64x48 frames ({nbytes} bytes) "
                                 f"cannot be allocated: Unable to allocate an array with shape "
                                 f"(7, {48 * 71})\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_timings_rounded_to_the_microsecond(self, dataset, tmp_path):
        manifest_path, _ = dataset
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", manifest_path, "--out", out).exit_code == 0
        doc = json.loads((out / "run.json").read_text())
        times = list(doc["timings_ms"].values()) + [d["score_ms"] for d in doc["diagnostics"]]
        assert all(v == round(v, 3) for v in times)
        assert any(v != round(v, 2) for v in times)  # not rounded coarser either

    def test_kernel_too_large_leaves_earlier_run(self, dataset, tmp_path):
        # The kernels are built and fitted to the manifest's geometry before
        # --out is touched: a complete earlier run, overlays included, keeps
        # every file byte for byte, and a missing --out is not made.
        manifest_path, n = dataset
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13,
                         "--emit-overlays")
        assert result.exit_code == 0, result.output
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 2 * n + 1 and "run.json" in before
        for target in (out, tmp_path / "missing"):
            result = run_cli("run", "--manifest", manifest_path, "--out", target, "--r2", 40)
            assert result.exit_code == 2, result.output
            assert result.output == "error: 80x80 kernel does not fit a 48x64 frame\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not (tmp_path / "missing").exists()

    def test_internal_error_exit_1(self, dataset, tmp_path, monkeypatch):
        # An error that is not the package's, the file system's or memory's
        # is an internal one: exit 1, and no run.json marks the run complete.
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "oms_frame", boom)
        out = tmp_path / "run"
        result = run_cli("run", "--manifest", dataset[0], "--out", out)
        assert result.exit_code == 1, result.output
        assert "internal error: boom" in result.output
        assert not (out / "run.json").exists()

    def test_text_event_file_refused(self, dataset, tmp_path):
        # The native file is the one event input. A t,x,y,p text file fails
        # the header check, which comes before --out is touched.
        text = tmp_path / "ds" / "events.csv"
        text.parent.mkdir()
        text.write_text("t,x,y,p\n1,2,3,1\n")
        manifest = tmp_path / "ds" / "manifest.json"
        DatasetManifest(SensorGeometry(64, 48), "events.csv", "masks", (10,)).save(manifest)
        message = f"{text}: bad magic at byte offset 0 (not b'EVT1')"
        with pytest.raises(ParseError) as info:
            read_events(text)
        assert str(info.value) == message
        out = tmp_path / "run"
        assert run_cli("run", "--manifest", dataset[0], "--out", out).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "run.json" in before
        result = run_cli("run", "--manifest", manifest, "--out", out)
        assert result.exit_code == 2 and result.output == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        result = run_cli("eval", "--pred-dir", out, "--manifest", manifest)
        assert result.exit_code == 2 and result.output == f"error: {message}\n"


class TestEval:
    def test_perfect_predictions(self, dataset, tmp_path):
        manifest_path, n = dataset
        # predictions = copies of the ground truth
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for i in range(n):
            src = manifest_path.parent / "masks" / mask_filename(i)
            (pred_dir / f"oms_{i:05d}.pgm").write_bytes(src.read_bytes())
        result = run_cli("eval", "--pred-dir", pred_dir, "--manifest", manifest_path)
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["mean_iou"] == 100.0
        assert report["detection_rate"] == 100.0

    def test_empty_predictions(self, dataset, tmp_path):
        manifest_path, n = dataset
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        from oms.dataset_io import write_mask

        for i in range(n):
            write_mask(np.zeros((48, 64), np.uint8), pred_dir / f"oms_{i:05d}.pgm")
        result = run_cli("eval", "--pred-dir", pred_dir, "--manifest", manifest_path)
        report = json.loads(result.output)
        assert report["mean_iou"] == 0.0 and report["detection_rate"] == 0.0

    @pytest.mark.parametrize("verbose", [False, True], ids=["report", "verbose"])
    def test_gray_levels_read_as_one(self, dataset, tmp_path, verbose):
        # Any nonzero byte is 1: ground truth and predictions whose set pixels
        # hold gray levels 1, 7, 128 and 255 give the report of 0/255 copies.
        manifest_path, n = dataset
        run = tmp_path / "run"
        result = run_cli("run", "--manifest", manifest_path, "--out", run, "--alpha", 0.13)
        assert result.exit_code == 0, result.output
        rng = np.random.default_rng(9)
        outputs = []
        for name, levels in (("binary", [255]), ("gray", [1, 7, 128, 255])):
            manifest = dataset_copy(manifest_path, tmp_path / name)
            preds = tmp_path / f"{name}_preds"
            preds.mkdir()
            for i in range(n):
                for src, dst in ((manifest_path.parent / "masks" / mask_filename(i),
                                  manifest.parent / "masks" / mask_filename(i)),
                                 (run / f"oms_{i:05d}.pgm", preds / f"oms_{i:05d}.pgm")):
                    mask = read_mask(src)
                    _write_pgm(np.where(mask, rng.choice(levels, mask.shape), 0).astype(np.uint8),
                               dst)
            args = ["--verbose"] if verbose else []
            result = run_cli("eval", "--pred-dir", preds, "--manifest", manifest, *args)
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout_bytes)
        report = json.loads(outputs[0])
        assert report["frames_evaluated"] > 0 and 0 < report["mean_iou"] < 100
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("pred_dir", ["./preds/", "preds/", "preds"])
    @pytest.mark.parametrize("fault", ["missing prediction", "prediction is a directory",
                                       "ground truth is a directory"])
    def test_bad_mask_message_on_relative_paths(self, dataset, predictions, tmp_path,
                                                monkeypatch, pred_dir, fault):
        # Messages name a mask as Path(directory) / name prints it.
        dataset_copy(dataset[0], tmp_path / "ds")
        shutil.copytree(predictions, tmp_path / "preds")
        monkeypatch.chdir(tmp_path)
        bad = Path("ds/masks/mask_00003.pgm" if "ground" in fault else "preds/oms_00003.pgm")
        bad.unlink()
        if "directory" in fault:
            bad.mkdir()
        result = run_cli("eval", "--pred-dir", pred_dir, "--manifest", "./ds//manifest.json")
        assert result.exit_code == 2, result.output
        if fault == "missing prediction":
            assert result.output == f"error: [Errno 2] No such file or directory: '{bad}'\n"
        else:
            assert result.output == (f"error: {bad}: cannot read mask file: "
                                     f"{os.strerror(errno.EISDIR)}\n")

    def test_verbose_frames(self, dataset, tmp_path):
        manifest_path, n = dataset
        out = tmp_path / "run"
        run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        result = run_cli("eval", "--pred-dir", out, "--manifest", manifest_path, "--verbose")
        report = json.loads(result.output)
        assert len(report["frames"]) == n

    def test_stage_timings_logged_not_reported(self, dataset, tmp_path, caplog):
        manifest_path, _ = dataset
        out = tmp_path / "run"
        run_cli("run", "--manifest", manifest_path, "--out", out, "--alpha", 0.13)
        args = ("eval", "--pred-dir", out, "--manifest", manifest_path)
        with caplog.at_level(logging.WARNING, logger="oms"):
            quiet = run_cli(*args, "--out", tmp_path / "quiet.json")
        assert not caplog.records
        with caplog.at_level(logging.INFO, logger="oms"):
            logged = run_cli(*args, "--out", tmp_path / "logged.json")
        assert quiet.exit_code == logged.exit_code == 0
        assert logged.stdout_bytes == quiet.stdout_bytes
        assert (tmp_path / "logged.json").read_bytes() == (tmp_path / "quiet.json").read_bytes()
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("eval ")]
        assert len(lines) == 1
        timings = json.loads(lines[0].removeprefix("eval timings_ms "))
        assert set(timings) == {"load", "bin", "read_masks", "evaluate"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())


class TestSynth:
    def test_writes_dataset(self, tmp_path):
        scene = {
            "geometry": {"width": 64, "height": 48},
            "n_frames": 5,
            "bg_density": 0.05,
            "camera_velocity": [1.0, 0.0],
            "objects": [
                {"shape": "disk", "size": 6, "velocity": [1.0, 0.0], "start": [10.0, 24.0]}
            ],
            "noise_rate": 0.0,
            "seed": 11,
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "ds"
        result = run_cli("synth", scene_path, "--out", out)
        assert result.exit_code == 0, result.output
        assert (out / "manifest.json").exists()
        assert len(list((out / "masks").glob("*.pgm"))) == 4

    def test_missing_key_exit_2(self, tmp_path):
        scene = {
            "geometry": {"width": 64, "height": 48}, "n_frames": 5, "bg_density": 0.05,
            "camera_velocity": [1.0, 0.0],
            "objects": [{"shape": "disk", "size": 6, "velocity": [1.0, 0.0],
                         "position": [10.0, 24.0]}],
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        result = run_cli("synth", scene_path, "--out", tmp_path / "ds")
        assert result.exit_code == 2, result.output
        assert "'start'" in result.output

    def test_roundtrips_through_run(self, dataset, tmp_path):
        manifest_path, n = dataset
        masks = [read_mask(manifest_path.parent / "masks" / mask_filename(i)) for i in range(n)]
        assert any(m.any() for m in masks)


def strict_json(text):
    """json.loads that fails on NaN and Infinity."""
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in output")
    return json.loads(text, parse_constant=reject)


def mostly(valid, junk):
    """valid in about three draws of four, junk in the rest."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else junk)


FUZZ_JUNK = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
             | st.text(max_size=3) | st.lists(st.integers(), max_size=2))
FUZZ_PARAMS = st.fixed_dictionaries({}, optional={
    "r1": mostly(st.integers(1, 3), FUZZ_JUNK),
    "r2": mostly(st.integers(4, 8), FUZZ_JUNK),
    "stride": mostly(st.integers(1, 4), FUZZ_JUNK),
    "alpha": mostly(st.floats(0, 1), FUZZ_JUNK),
    "mode": mostly(st.sampled_from(["dense", "strided"]), FUZZ_JUNK),
    "sigma_c": mostly(st.floats(0.3, 4), FUZZ_JUNK),
    "sigma_s": mostly(st.floats(0.3, 4), FUZZ_JUNK),
    "emit_overlays": FUZZ_JUNK,
    "other": FUZZ_JUNK,
    "threads": st.sampled_from([1, 2, 0, -1, "x", 1.5, True, None, [2], 64]),  # ignored
})
FUZZ_CONFIGS = mostly(FUZZ_PARAMS, FUZZ_JUNK)
FUZZ_THREADS = mostly(st.sampled_from([None, "1", "2"]), st.sampled_from(["0", "-1", "x", "1.5"]))
FUZZ_FLAGS = st.fixed_dictionaries({}, optional={
    "--alpha": mostly(st.floats(0, 1), st.floats()).map(repr),
    "--r1": mostly(st.integers(1, 3), st.integers(-2, 30)).map(str),
    "--r2": mostly(st.integers(4, 8), st.integers(-2, 40)).map(str),
})


def seldom(valid, junk):
    """valid in about nine draws of ten, junk in the rest: a scene has a
    dozen fields, so most scenes still get past validation."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 9 else valid)


def junk_at_most(n):
    """FUZZ_JUNK with no integer above n, so no draw allocates much."""
    return FUZZ_JUNK.filter(lambda v: not isinstance(v, int) or v <= n)


def fuzz_pair(lo, hi):
    return seldom(st.lists(st.floats(lo, hi), min_size=2, max_size=2), FUZZ_JUNK)


# Frames stay small: the width is at most 64 (or invalid), the height at
# most 8 and n_frames at most 4.
FUZZ_OBJECTS = seldom(st.lists(seldom(st.fixed_dictionaries({
    "shape": seldom(st.sampled_from(["disk", "rect"]), FUZZ_JUNK),
    "size": seldom(st.integers(1, 3), FUZZ_JUNK),
    "velocity": fuzz_pair(-2, 2),
    "start": fuzz_pair(0, 7),
}), FUZZ_JUNK), max_size=2), FUZZ_JUNK)
FUZZ_SCENES = seldom(st.fixed_dictionaries({
    "geometry": seldom(st.fixed_dictionaries({
        "width": seldom(st.integers(8, 64), FUZZ_JUNK | st.just(65536)),
        "height": seldom(st.integers(6, 8), junk_at_most(8)),
    }), FUZZ_JUNK),
    "n_frames": seldom(st.integers(2, 4), junk_at_most(4)),
    "bg_density": seldom(st.floats(0.01, 0.5), FUZZ_JUNK),
    "camera_velocity": fuzz_pair(-2, 2),
    "objects": FUZZ_OBJECTS,
}, optional={
    "noise_rate": seldom(st.floats(0, 3), FUZZ_JUNK),
    "seed": seldom(st.integers(0, 2**32), FUZZ_JUNK),
    "other": FUZZ_JUNK,
}), FUZZ_JUNK)


def scene_doc(**changes):
    """A valid small scene with top-level fields replaced."""
    doc = {"geometry": {"width": 16, "height": 8}, "n_frames": 3, "bg_density": 0.1,
           "camera_velocity": [1.0, 0.0],
           "objects": [{"shape": "rect", "size": 3, "velocity": [1.0, 0.0], "start": [2, 4]}],
           "noise_rate": 0.5, "seed": 1}
    return {**doc, **changes}


class TestCliFuzz:
    """run and eval exit 0 or 2 on any config, thread count, alpha and radii,
    start no thread, and never print or write a NaN, and a run that exits 0
    records one diagnostic per frame; synth exits 0 or 2 on any scene
    config."""

    @settings(max_examples=60, deadline=None)
    @given(config=FUZZ_CONFIGS, threads=FUZZ_THREADS, flags=FUZZ_FLAGS, verbose=st.booleans())
    @example(config={"sigma_c": float("inf")}, threads=None, flags={}, verbose=False)
    def test_run_eval(self, dataset, config, threads, flags, verbose):
        manifest_path, n = dataset
        args = [a for kv in flags.items() for a in kv]
        with tempfile.TemporaryDirectory() as tmp, thread_starts() as started:
            tmp = Path(tmp)
            cfg = tmp / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = tmp / "run"
            thread_args = [] if threads is None else ["--threads", threads]
            results = [run_cli("run", "--manifest", manifest_path, "--out", out,
                               "--config", cfg, *thread_args, *args)]
            if results[0].exit_code == 0:
                assert len(strict_json((out / "run.json").read_text())["diagnostics"]) == n
            results.append(run_cli("eval", "--pred-dir", out, "--manifest", manifest_path,
                                   *(["--verbose"] if verbose else [])))
            if results[0].exit_code == 0:
                assert results[1].exit_code == 0, results[1].output
                strict_json(results[1].output)
        assert started == []
        for result in results:
            assert result.exit_code in (0, 2), result.output
            assert "NaN" not in result.output and "Infinity" not in result.output

    @settings(max_examples=150, deadline=None)
    @given(doc=FUZZ_SCENES)
    @example(doc=scene_doc(geometry={"width": 70000, "height": 8}))
    @example(doc=scene_doc(geometry={"width": "a", "height": 4}))
    @example(doc=[1, 2])
    @example(doc=scene_doc(camera_velocity=[1]))
    @example(doc=scene_doc(seed=-1))
    @example(doc=scene_doc(noise_rate="x"))
    @example(doc=scene_doc(n_frames=3.5))
    def test_synth(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_text(json.dumps(doc))
            result = run_cli("synth", scene, "--out", Path(tmp) / "ds")
            if result.exit_code == 0:
                DatasetManifest.load(Path(tmp) / "ds" / "manifest.json")
        assert result.exit_code in (0, 2), result.output
        assert "internal error" not in result.output


def dataset_copy(manifest_path, dest):
    """A copy of the dataset directory at dest; returns the copy's manifest."""
    shutil.copytree(manifest_path.parent, dest)
    return dest / "manifest.json"


def dir_in_place_of(path):
    """Replace the file at path with an empty directory; returns path."""
    path.unlink()
    path.mkdir()
    return path


def non_utf8_file(path):
    path.write_bytes(b"\xff\xfe{}")
    return path


def reversed_events(manifest_path):
    """Reverse the records of the dataset's native event file, so that t
    decreases; returns the event file's path."""
    path = manifest_path.parent / "events.evt"
    data = path.read_bytes()
    records = np.frombuffer(data, EVENT_DTYPE, offset=16)
    assert records["t"][0] < records["t"][-1]
    path.write_bytes(data[:16] + records[::-1].tobytes())
    return path


def with_geometry(manifest_path, width, height):
    """Rewrite the manifest's geometry; returns the manifest's path."""
    doc = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**doc, "geometry": {"width": width, "height": height}}))
    return manifest_path


# Each case builds one unreadable input in tmp and returns (CLI args, the
# path the error message must name).
UNREADABLE_INPUTS = {
    "scene config not UTF-8": lambda m, preds, tmp: (
        ["synth", non_utf8_file(tmp / "scene.json"), "--out", tmp / "ds"], tmp / "scene.json"),
    "scene config is a directory": lambda m, preds, tmp: (
        ["synth", tmp, "--out", tmp / "ds"], tmp),
    "run config not UTF-8": lambda m, preds, tmp: (
        ["run", "--manifest", m, "--out", tmp / "o", "--config", non_utf8_file(tmp / "cfg.json")],
        tmp / "cfg.json"),
    "run config is a directory": lambda m, preds, tmp: (
        ["run", "--manifest", m, "--out", tmp / "o", "--config", tmp], tmp),
    "manifest is a directory": lambda m, preds, tmp: (
        ["run", "--manifest", tmp, "--out", tmp / "o"], tmp),
    "event file is a directory": lambda m, preds, tmp: (
        ["run", "--manifest", dataset_copy(m, tmp / "ds"), "--out", tmp / "o"],
        dir_in_place_of(tmp / "ds" / "events.evt")),
    "ground truth is a directory (eval)": lambda m, preds, tmp: (
        ["eval", "--pred-dir", preds, "--manifest", dataset_copy(m, tmp / "ds")],
        dir_in_place_of(tmp / "ds" / "masks" / mask_filename(1))),
    "ground truth is a directory (overlays)": lambda m, preds, tmp: (
        ["run", "--manifest", dataset_copy(m, tmp / "ds"), "--out", tmp / "o",
         "--emit-overlays"], dir_in_place_of(tmp / "ds" / "masks" / mask_filename(1))),
    "prediction is a directory": lambda m, preds, tmp: (
        ["eval", "--pred-dir", shutil.copytree(preds, tmp / "p"), "--manifest", m],
        dir_in_place_of(tmp / "p" / "oms_00001.pgm")),
    "event file unsorted": lambda m, preds, tmp: (
        ["run", "--manifest", dataset_copy(m, tmp / "ds"), "--out", tmp / "o"],
        reversed_events(tmp / "ds" / "manifest.json")),
    "event outside the manifest geometry": lambda m, preds, tmp: (
        ["run", "--manifest", with_geometry(dataset_copy(m, tmp / "ds"), 8, 8), "--out",
         tmp / "o"], tmp / "ds" / "events.evt"),
    "run --out is a file": lambda m, preds, tmp: (
        ["run", "--manifest", m, "--out", tmp / "o"], non_utf8_file(tmp / "o")),
}


@pytest.fixture(scope="module")
def predictions(dataset, tmp_path_factory):
    """oms run's masks for the module dataset."""
    out = tmp_path_factory.mktemp("preds")
    assert run_cli("run", "--manifest", dataset[0], "--out", out).exit_code == 0
    return out


class TestUnreadableInput:
    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_exit_2_naming_the_path(self, dataset, predictions, tmp_path, case):
        args, path = UNREADABLE_INPUTS[case](dataset[0], predictions, tmp_path)
        result = run_cli(*args)
        assert result.exit_code == 2, result.output
        assert str(path) in result.output
        assert "internal error" not in result.output

    @pytest.mark.parametrize("case, what", [
        ("event file is a directory", "event file"),
        ("ground truth is a directory (eval)", "mask file"),
        ("ground truth is a directory (overlays)", "mask file"),
        ("prediction is a directory", "mask file"),
    ])
    def test_unreadable_data_file_message(self, dataset, predictions, tmp_path, case, what):
        args, path = UNREADABLE_INPUTS[case](dataset[0], predictions, tmp_path)
        result = run_cli(*args)
        assert result.exit_code == 2, result.output
        assert f"error: {path}: cannot read {what}: " in result.output


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def changed(**fields):
    return lambda doc: {**doc, **fields}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


# Readers of every JSON input document: each writes doc where its reader
# looks and returns (that path, the CLI result or the ParseError text).
def read_manifest(doc, manifest, tmp):
    path = write_json(dataset_copy(manifest, tmp / "ds"), doc)
    return path, run_cli("run", "--manifest", path, "--out", tmp / "o")


def read_meta(doc, manifest, tmp):
    build_evimo_fixture(tmp / "evimo", np.random.default_rng(0))
    path = write_json(tmp / "evimo" / "meta.json", doc)
    with pytest.raises(ParseError) as info:
        import_evimo(tmp / "evimo", tmp / "native")
    return path, str(info.value)


def read_scene(doc, manifest, tmp):
    path = write_json(tmp / "scene.json", doc)
    return path, run_cli("synth", path, "--out", tmp / "ds")


def read_run_config(doc, manifest, tmp):
    path = write_json(tmp / "cfg.json", doc)
    return path, run_cli("run", "--manifest", manifest, "--out", tmp / "o", "--config", path)


# Each document's reader and a valid document to break.
JSON_DOCUMENTS = {
    "manifest": (read_manifest, {
        "geometry": {"width": 64, "height": 48}, "event_file": "events.evt",
        "mask_dir": "masks", "mask_timestamps": [1000, 2000], "source": "native"}),
    "meta": (read_meta, {"width": 32, "height": 24}),
    "scene config": (read_scene, scene_doc()),
    "run config": (read_run_config, {"alpha": 0.13}),
}
# (document, what is wrong, edit of the valid document). A run config has
# no required field, so it has no missing-field case.
BAD_DOCUMENTS = [
    ("manifest", "not an object", lambda doc: [doc]),
    ("manifest", "missing field", without("mask_dir")),
    ("manifest", "wrong kind", changed(mask_timestamps={"0": 1000})),
    ("manifest", "out of range", changed(geometry={"width": 70000, "height": 48})),
    ("meta", "not an object", lambda doc: [doc]),
    ("meta", "missing field", without("height")),
    ("meta", "wrong kind", changed(width="32")),
    ("meta", "out of range", changed(width=0)),
    ("scene config", "not an object", lambda doc: "scene"),
    ("scene config", "missing field", without("objects")),
    ("scene config", "wrong kind", changed(objects={"shape": "disk"})),
    ("scene config", "out of range", changed(geometry={"width": 70000, "height": 8})),
    ("run config", "not an object", lambda doc: [doc]),
    ("run config", "wrong kind", changed(emit_overlays="false")),
    ("run config", "out of range", changed(alpha=2)),
]


@pytest.mark.parametrize("document, what, edit", BAD_DOCUMENTS,
                         ids=[f"{d}-{w}" for d, w, _ in BAD_DOCUMENTS])
def test_bad_json_document_names_its_file(dataset, tmp_path, document, what, edit):
    # Every JSON input is read by one reader: a bad document is a ParseError
    # (exit 2 from the CLI) whose message starts with the document's path.
    read, valid = JSON_DOCUMENTS[document]
    path, result = read(edit(valid), dataset[0], tmp_path)
    if isinstance(result, str):
        assert result.startswith(f"{path}: ")
    else:
        assert result.exit_code == 2, result.output
        assert f"error: {path}: " in result.output


def mutated(draw, data: bytes) -> bytes:
    """data truncated, with up to 4 bytes flipped, or extended."""
    kind = draw(st.sampled_from(["truncate", "flip", "extend"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=40))
    out = bytearray(data)
    for i in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=4)):
        out[i] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.fixture(scope="module")
def tiny_datasets(tmp_path_factory):
    """A 16x8, 3-frame dataset and oms run's masks for it: (manifest path, dir)."""
    config = SceneConfig.from_dict(scene_doc(n_frames=4))
    events, masks, ts = generate_scene(config)
    root = tmp_path_factory.mktemp("tiny")
    manifest = write_dataset(root / "ds", events, config.geometry, masks, ts)
    preds = root / "preds"
    assert run_cli("run", "--manifest", manifest, "--out", preds, "--alpha", 0.13).exit_code == 0
    return manifest, preds


class TestFileFuzz:
    """run and eval exit 0 or 2 on truncated, byte-flipped or extended
    manifests, event files and masks, and never write a NaN or an Infinity."""

    @settings(max_examples=100, deadline=None)
    @given(overlays=st.booleans(), data=st.data())
    def test_run_eval(self, tiny_datasets, overlays, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            manifest = dataset_copy(tiny_datasets[0], tmp / "ds")
            preds = shutil.copytree(tiny_datasets[1], tmp / "preds")
            files = [manifest, manifest.parent / json.loads(manifest.read_text())["event_file"],
                     *sorted((tmp / "ds" / "masks").iterdir()), *sorted(preds.glob("oms_*"))]
            mutate = data.draw(st.lists(st.sampled_from(files), min_size=1, max_size=2,
                                        unique=True))
            for path in mutate:
                path.write_bytes(mutated(data.draw, path.read_bytes()))
            out = tmp / "run"
            run = run_cli("run", "--manifest", manifest, "--out", out,
                          *(["--emit-overlays"] if overlays else []))
            if run.exit_code == 0:
                strict_json((out / "run.json").read_text())
            report = tmp / "report.json"
            ev = run_cli("eval", "--pred-dir", preds, "--manifest", manifest, "--out", report)
            if ev.exit_code == 0:
                strict_json(report.read_text())
        for result in (run, ev):
            assert result.exit_code in (0, 2), result.output
            assert "NaN" not in result.output and "Infinity" not in result.output


class TestKernelDump:
    def test_grid_output(self):
        result = run_cli("kernel-dump", "--radius", 2)
        assert result.exit_code == 0
        grid = [[float(v) for v in line.split()] for line in result.output.strip().splitlines()]
        assert len(grid) == 4 and all(len(r) == 4 for r in grid)
        assert abs(sum(sum(r) for r in grid) - 1.0) < 1e-9
        assert run_cli("kernel-dump", "--radius", 2, "--sigma", "inf").exit_code == 2



def test_commands():
    # run.json's diagnostics are the one per-frame timer: there is no bench.
    result = run_cli("--help")
    assert result.exit_code == 0, result.output
    listed = result.output.split("Commands:\n", 1)[1].splitlines()
    assert sorted(line.split()[0] for line in listed) == ["eval", "kernel-dump", "run", "synth"]
    result = run_cli("bench", "--manifest", "manifest.json")
    assert result.exit_code == 2 and "No such command 'bench'" in result.output
