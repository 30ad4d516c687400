"""The measured passes, the probes and the traced replay behind run.py.

Imports the program (package `oms`), so run.py puts the checkout's src/
on sys.path first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oms import dataset_io
from oms.cli import PRED_PATTERN, RUN_MANIFEST_NAME, main as oms_main, resolve_params
from oms.dataset_io import DatasetManifest, mask_filename, read_events, read_mask, write_mask
from oms.engine import OmsParams, oms_frame, oms_scores, oms_sequence
from oms.events import accumulate_frame, window_events
from oms.metrics import evaluate_sequence

import reference
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

ALPHA = 0.13
STREAM_PER_ROUND = 10  # windows streamed per round, rotating through the recording
# At least 100 streamed frames, so that 10 samples lie beyond p90, and every
# window of a 50-frame recording streamed and checked twice.
MIN_ROUNDS = 10
SETUP_PROBES = 11
RSS_PROBES = 1  # peak RSS repeats to the KiB between probes
TRACED_PASSES = 3


class CheckFailed(Exception):
    """An output check did not hold."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Outcomes:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, fn, what: str):
        """Run one operation and return its value, or None when it raised.
        Any exception, a failed check included, fails the operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def expect(self, ok: bool, what: str) -> None:
        """A check made once per run, counted as one operation."""
        self.op(lambda: require(ok, what), "check")


def call_cli(args: list[str]) -> tuple[int, float, str]:
    """Run one oms command in-process: (exit code, wall seconds, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            oms_main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - t0, buf.getvalue()


def probe(mode: str, *args: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(SRC), mode, *args],
                          capture_output=True, text=True, timeout=120, cwd=BENCH.parent)
    require(proc.returncode == 0, f"{mode} probe exited {proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    """One workload at one seed: dataset, reference, and the passes over it."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.threads = len(os.sched_getaffinity(0))
        self.params = OmsParams(alpha=ALPHA)
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        self.outcomes = Outcomes()

        # Set-up, untimed: dataset, reference masks, in-memory windows.
        self.ds = workloads.generate(workload, seed, work / "data")
        self.n = len(self.ds.timestamps)
        shape = workloads.GEOMETRY.shape
        self.ref_frames = reference.frames_from_events(self.ds.events, self.ds.timestamps, shape)
        if self.ds.base_events is not self.ds.events:
            base = reference.frames_from_events(self.ds.base_events, self.ds.timestamps, shape)
            self.outcomes.expect(np.array_equal(base, self.ref_frames),
                                 "bursting the events changed the binary frames")
        self.ref = reference.MaskReference(reference.reference_scores(self.ref_frames), ALPHA)
        self.ref_eval = reference.score_masks(self.ref_frames, self.ds.masks, self.ref.masks)
        self.windows = window_events(self.ds.events, self.ds.timestamps)
        self.digests: dict[str, set] = {"masks": set(), "report": set()}
        self.run_stack = None  # masks of the first `oms run` pass
        self.report = None     # report of the first `oms eval` pass
        self.rounds = 0

    # --- untraced end-to-end passes ----------------------------------------

    def run_pass(self, out_dir: Path, threads: int) -> float:
        code, dt, _ = call_cli(["run", "--manifest", str(self.ds.manifest), "--out", str(out_dir),
                                "--alpha", str(ALPHA), "--threads", str(threads)])
        require(code == 0, f"exit code {code}")
        stack = reference.read_mask_stack(out_dir, self.n)
        bad = self.ref.mismatches(stack)
        require(bad == 0, f"{bad} px differ from the reference")
        if self.run_stack is None:
            self.run_stack = stack
        require(np.array_equal(stack, self.run_stack), "masks differ from the first pass")
        self.digests["masks"].add(reference.stack_digest(stack))
        return dt

    def eval_pass(self, pred_dir: Path) -> float:
        code, dt, text = call_cli(["eval", "--pred-dir", str(pred_dir),
                                   "--manifest", str(self.ds.manifest)])
        require(code == 0, f"exit code {code}")
        report = json.loads(text)
        miou, dr = self.ref_eval
        require(abs(report["mean_iou"] - miou) <= 1e-9 and report["detection_rate"] == dr,
                f"report mIoU {report['mean_iou']} / DR {report['detection_rate']}, "
                f"reference {miou} / {dr}")
        self.digests["report"].add(reference.report_digest(report))
        if self.report is None:
            self.report = report
        return dt

    def stream(self, first: int, center, surround, latencies: list[float]) -> None:
        """accumulate_frame + oms_frame on STREAM_PER_ROUND in-memory windows,
        one caller in a closed loop; latencies in ms."""
        for k in range(first, first + STREAM_PER_ROUND):
            k %= self.n

            def one(k=k):
                t0 = time.perf_counter()
                frame = accumulate_frame(self.windows[k], workloads.GEOMETRY)
                mask = oms_frame(frame, self.params, center, surround)
                dt = time.perf_counter() - t0
                require(np.array_equal(frame, self.ref_frames[k]), "frame differs from the reference")
                require(self.ref.mismatches(mask, k) == 0, "mask differs from the reference")
                require(self.run_stack is None or np.array_equal(mask, self.run_stack[k]),
                        "mask differs from oms run's")
                return dt

            dt = self.outcomes.op(one, f"stream frame {k}")
            if dt is not None:
                latencies.append(dt * 1e3)

    def measure(self, seconds: float) -> dict[str, list[float]]:
        """Rounds of run, threaded run, eval and streaming, for `seconds`."""
        s = {"run_s": [], "run_mt_s": [], "eval_s": [], "frame_ms": []}
        out1, out_mt = self.work / "run1", self.work / "run_mt"
        center, surround = self.params.make_kernels()
        passes = (
            ("run_s", lambda: self.run_pass(out1, 1), "oms run --threads 1"),
            ("run_mt_s", lambda: self.run_pass(out_mt, self.threads), f"oms run --threads {self.threads}"),
            ("eval_s", lambda: self.eval_pass(out1), "oms eval"),
        )
        rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for key, fn, what in passes:
                dt = self.outcomes.op(fn, what)
                if dt is not None:
                    s[key].append(dt)
            self.stream(rounds * STREAM_PER_ROUND, center, surround, s["frame_ms"])
            rounds += 1
        self.rounds = rounds
        return s

    def probes(self) -> dict[str, list[float]]:
        """Set-up time and peak RSS, each in fresh interpreters."""
        manifest = str(self.ds.manifest)
        op = self.outcomes.op
        op(lambda: probe("setup", manifest), "setup warm-up")  # fills src/oms/__pycache__
        setup = [op(lambda: probe("setup", manifest)["setup_s"], "setup probe")
                 for _ in range(SETUP_PROBES)]
        rss = [op(lambda i=i: probe("rss", manifest, str(self.work / f"rss{i}"),
                                    str(ALPHA))["peak_rss_mb"], "rss probe")
               for i in range(RSS_PROBES)]
        return {"setup_s": [v for v in setup if v is not None],
                "peak_rss_mb": [v for v in rss if v is not None]}

    # --- traced replay -------------------------------------------------------

    def traced_pass(self, tr: Tracer, out_dir: Path) -> dict:
        """Replay `oms run` and `oms eval` call by call, in their order, with one
        span per call into a layer. Returns the pass's counts; timings are read
        from the spans."""
        path = Path(self.ds.manifest)

        def load_inputs():  # load_dataset + build_frames, as both commands do
            with tr.span("dataset_io.manifest_load"):
                manifest = DatasetManifest.load(path)
            event_path, mask_dir = manifest.resolve(path.parent)
            with tr.span("dataset_io.read_events"):
                events = read_events(event_path)
            gts = []
            for i in range(len(manifest.mask_timestamps)):
                with tr.span("dataset_io.read_mask"):
                    gts.append(read_mask(mask_dir / mask_filename(i), manifest.geometry))
            with tr.span("events.window"):
                windows = window_events(events, manifest.mask_timestamps)
            frames = []
            for w in windows:
                with tr.span("events.accumulate"):
                    frames.append(accumulate_frame(w, manifest.geometry))
            return manifest, events, gts, windows, frames

        with tr.span("cli.run"):
            DatasetManifest.load(path)  # cmd_run's early existence check: the CLI's own time
            params = resolve_params({}, alpha=ALPHA)
            manifest, events, _, windows, frames = load_inputs()
            with tr.span("kernels.build"):
                center, surround = params.make_kernels()
            preds = []
            for f in frames:
                with tr.span("engine.frame"):
                    preds.append(oms_frame(f, params, center, surround))
            out_dir.mkdir(parents=True, exist_ok=True)
            for i, pred in enumerate(preds):
                with tr.span("dataset_io.write_mask"):
                    write_mask(pred, out_dir / PRED_PATTERN.format(i))
            # run.json as cmd_run writes it, so its cost stays in the CLI's self time
            run_doc = {"format_version": dataset_io.FORMAT_VERSION, "manifest": str(path.resolve()),
                       "params": {"r1": params.r1, "r2": params.r2, "s_s": params.s_s,
                                  "alpha": params.alpha, "mode": params.mode,
                                  "sigma_c": params.center_sigma, "sigma_s": params.surround_sigma},
                       "threads": 1, "frames": len(preds), "emit_overlays": False}
            (out_dir / RUN_MANIFEST_NAME).write_text(json.dumps(run_doc, indent=2) + "\n")

        scores = []
        for f in frames:
            with tr.span("engine.scores"):
                s = oms_scores(f, params, center, surround)
            scores.append((s.size, int(np.count_nonzero(s)), float(s.max())))
        with tr.span("engine.sequence_mt"):
            mt = oms_sequence(frames, params, threads=self.threads)

        with tr.span("cli.eval"):
            manifest, _, gts, _, eval_frames = load_inputs()
            read_back = []
            for i in range(len(gts)):
                with tr.span("dataset_io.read_mask"):
                    read_back.append(read_mask(out_dir / PRED_PATTERN.format(i), manifest.geometry))
            with tr.span("metrics.evaluate"):
                report, _ = evaluate_sequence(read_back, gts, eval_frames, with_frames=True)
            json.dumps(report.to_dict(), indent=2)

        for name, got in (("run", preds), ("threaded", mt), ("read-back", read_back)):
            require(np.array_equal(np.stack(got), self.run_stack),
                    f"traced {name} masks differ from oms run's")
        require(reference.report_digest(report.to_dict()) in self.digests["report"],
                "traced eval report differs from oms eval's")
        # Both replays read and window the recording, so input counts are doubled.
        return {
            "events_in": 2 * len(events),
            "windows": 2 * len(windows),
            "frames": 2 * len(frames),
            "window_events": 2 * sum(len(w) for w in windows),
            "active_px": 2 * sum(int(np.count_nonzero(f)) for f in frames),
            "frame_px": 2 * sum(f.size for f in frames),
            "read_events_mb": 2 * (path.parent / manifest.event_file).stat().st_size / 1e6,
            "px_scored": sum(s[0] for s in scores),
            "nonzero_scores": sum(s[1] for s in scores),
            "max_score": max(s[2] for s in scores),
            "spikes": sum(int(np.count_nonzero(p)) for p in preds),
            "frames_evaluated": report.frames_evaluated,
            "frames_skipped": report.frames_skipped,
        }

    def per_layer(self, run_s_mean: float) -> tuple[list[dict], Tracer]:
        """Per-layer metrics of each traced pass: layer times are the summed
        self time of the layer's spans in that pass."""
        tr = Tracer(self.workload)
        passes = []
        for p in range(TRACED_PASSES):
            tr.pass_id = p
            counts = self.outcomes.op(lambda: self.traced_pass(tr, self.work / "traced"),
                                      "traced pass")
            if counts is None:
                continue
            self_ms = tr.self_ms()
            ms: dict[str, float] = {}
            calls: dict[str, int] = {}
            for sp in tr.spans:
                if sp["pass"] == p:
                    ms[sp["name"]] = ms.get(sp["name"], 0.0) + self_ms[sp["id"]]
                    calls[sp["name"]] = calls.get(sp["name"], 0) + 1
            run_span = next(sp for sp in tr.spans if sp["pass"] == p and sp["name"] == "cli.run")
            traced_run_ms = (run_span["end"] - run_span["start"]) * 1e3
            passes.append({
                "engine.scores_ms": ms["engine.scores"],
                "engine.frame_ms": ms["engine.frame"],
                "engine.sequence_mt_ms": ms["engine.sequence_mt"],
                "engine.px_scored": counts["px_scored"],
                "engine.nonzero_score_frac": counts["nonzero_scores"] / counts["px_scored"],
                "engine.spikes": counts["spikes"],
                "engine.max_score": counts["max_score"],
                "events.window_ms": ms["events.window"],
                "events.windows": counts["windows"],
                "events.accumulate_ms": ms["events.accumulate"],
                "events.events_in": counts["events_in"],
                "events.events_per_frame": counts["window_events"] / counts["frames"],
                "events.active_px_frac": counts["active_px"] / counts["frame_px"],
                "dataset_io.read_events_ms": ms["dataset_io.read_events"],
                "dataset_io.read_events_mb": counts["read_events_mb"],
                "dataset_io.read_mask_ms": ms["dataset_io.read_mask"],
                "dataset_io.masks_read": calls["dataset_io.read_mask"],
                "dataset_io.write_mask_ms": ms["dataset_io.write_mask"],
                "dataset_io.masks_written": calls["dataset_io.write_mask"],
                "metrics.evaluate_ms": ms["metrics.evaluate"],
                "metrics.frames_evaluated": counts["frames_evaluated"],
                "metrics.frames_skipped": counts["frames_skipped"],
                "dataset_io.manifest_load_ms": ms["dataset_io.manifest_load"],
                "kernels.build_ms": ms["kernels.build"],
                "kernels.builds": calls["kernels.build"],
                "cli.run_self_ms": ms["cli.run"],
                "cli.eval_self_ms": ms["cli.eval"],
                "trace.overhead_pct": 100.0 * (traced_run_ms / (run_s_mean * 1e3) - 1.0),
                "synthetic.generate_ms": self.ds.generate_ms,
            })
        return passes, tr


def summary(values: list[float]) -> dict:
    """Mean, median, quartiles, 90th percentile and sample count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "p90": float(np.percentile(values, 90)), "n": len(values)}
