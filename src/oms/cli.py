"""Command-line front end: run the pipeline, evaluate, synthesize data and
dump kernels.

Exit codes: 0 success, 1 internal error, 2 usage or input error, including
any file or directory that cannot be read, parsed or written. The OMS_LOG
environment variable sets log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import re
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import dataset_io
from .dataset_io import (
    DatasetManifest,
    _event_chunks,
    _path_prefix,
    _read_json,
    _read_masks,
    _read_pgm,
    _write_file,
    _write_pgm,
    write_dataset,
    write_mask,
)
from .engine import OmsParams, _segment
from .errors import OmsError, ParseError, ValidationError, _json
from .events import _frames
from .kernels import kernel_to_text, make_feathered_kernel
from .metrics import _counts, _report
from .synthetic import SceneConfig, generate_scene

log = logging.getLogger("oms")

RUN_MANIFEST_NAME = "run.json"
PRED_PATTERN = "oms_{:05d}.pgm"
OVERLAY_PATTERN = "overlay_{:05d}.pgm"
_WRITE_GROUP = 8  # masks `oms run` holds before it writes them


def _setup_logging():
    level = os.environ.get("OMS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def handle_errors(f):
    """Map package, file-system and memory errors to exit 2, unexpected ones to exit 1."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (OmsError, OSError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except click.ClickException:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Retina-inspired object motion segmentation for event cameras."""
    _setup_logging()


_PARAM_OPTIONS = [
    click.option("--r1", type=int, default=None, help="Center kernel radius."),
    click.option("--r2", type=int, default=None, help="Surround kernel radius."),
    click.option("--stride", type=int, default=None, help="Lattice step of strided mode."),
    click.option("--alpha", type=float, default=None, help="Spike threshold in [0, 1]."),
    click.option("--mode", type=click.Choice(["dense", "strided"]), default=None),
    click.option("--sigma-c", type=float, default=None, help="Center Gaussian sigma."),
    click.option("--sigma-s", type=float, default=None, help="Surround Gaussian sigma."),
]


def param_options(f):
    for opt in reversed(_PARAM_OPTIONS):
        f = opt(f)
    return f


def resolve_params(config_doc: dict, **flags) -> OmsParams:
    """Flags override config-file values override defaults, and OmsParams checks
    them."""
    merged = {}
    for key, flag in flags.items():
        value = config_doc.get(key) if flag is None else flag
        if value is not None:
            merged["s_s" if key == "stride" else key] = value
    return OmsParams(**merged)


def open_frames(manifest_path, lap):
    """(manifest, frames), where frames yields the dataset's binary frames (one
    reused buffer) a window at a time as it reads, checks and bins the native
    event file. lap (of _laps) charges the manifest, the event file's header,
    the frame's allocation and each read to "load", the binning to "bin". The
    header is checked at once; a bad event raises, when the frames reach it, a
    ParseError that starts with the event file's path."""
    manifest = DatasetManifest.load(manifest_path)
    event_path, _ = manifest.resolve(Path(manifest_path).parent)
    chunks = _event_chunks(event_path, dataset_io._CHUNK)
    header = next(chunks)  # opens the file, checks its header now, before `oms run` touches --out
    # A header inside the manifest's geometry: the reader's record check bounds every event.
    bounds = not all(map(int.__le__, header, manifest.geometry))
    ts = np.array(manifest.mask_timestamps, dtype=np.int64)  # checked by the manifest

    def reads():
        lap("bin")
        for chunk in chunks:
            lap("load")
            yield chunk
            lap("bin")

    def frames(binned):
        try:
            for frame in binned:
                lap("bin")
                yield frame
        except ValidationError as exc:
            raise ParseError(f"{event_path}: {exc}") from exc

    binned = _frames(reads(), ts, manifest.geometry, bounds=bounds)  # allocates the frame now
    lap("load")
    return manifest, frames(binned)


def _laps(timings: dict):
    """A function lap(stage) that adds the wall time since its last call (or
    since this one) to timings[stage], in milliseconds, and returns it; stage
    None drops it."""
    last = time.perf_counter()

    def lap(stage):
        nonlocal last
        now = time.perf_counter()
        ms = (now - last) * 1e3
        if stage is not None:
            timings[stage] = timings.get(stage, 0.0) + ms
        last = now
        return ms

    return lap


@main.command("run")
@click.option("--manifest", "manifest_path", required=True, help="Dataset manifest JSON.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
@click.option("--config", "config_path", default=None, help="JSON run config file.")
@click.option("--emit-overlays", is_flag=True, default=None,
              help="Also write frame|GT|OMS composite images.")
@click.option("--threads", type=click.IntRange(min=1), default=1,
              help="Accepted (a positive integer) and ignored: scoring runs on one thread.")
@param_options
@handle_errors
def cmd_run(manifest_path, out_dir, config_path, emit_overlays, threads, **flags):
    """Run OMS over a dataset and write one mask per ground-truth timestamp."""

    def settings(doc: dict):
        """Flags override run-config fields, which override the defaults."""
        overlays = doc.get("emit_overlays", False) if emit_overlays is None else emit_overlays
        overlays = _json("emit_overlays", overlays, bool)
        return resolve_params(doc, **flags), overlays

    params, overlays = (
        _read_json(config_path, "run config", settings) if config_path else settings({}))

    timings = dict.fromkeys(("load", "bin", "score", "write"), 0.0)
    lap = _laps(timings)
    manifest, frames = open_frames(manifest_path, lap)
    n = len(manifest.mask_timestamps)
    if overlays:
        for _ in _read_masks(manifest, manifest_path, _read_pgm):  # each checked now, none kept
            pass
        gts = _read_masks(manifest, manifest_path)  # read again, decoded, as each frame is scored
        lap("load")
    scored = _segment(frames, manifest.geometry.shape, params)  # the kernels, before --out
    lap("score")  # the kernel build counts in timings_ms, not in score_ms[0]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / RUN_MANIFEST_NAME).unlink(missing_ok=True)  # written last: marks a complete run
    # So that --out holds one run, the masks (and overlays) of an earlier run that are not
    # PRED_PATTERN (OVERLAY_PATTERN, with overlays).format(i) for an i < n are removed.
    for path in out.iterdir():
        if (match := re.fullmatch(r"(oms|overlay)_(\d{5,})\.pgm", path.name)) and not (
                (overlays or match[1] == "oms") and match[2] == f"{int(match[2]):05d}"
                and int(match[2]) < n):
            path.unlink()
    lap(None)
    preds = []  # written _WRITE_GROUP at a time, so that the scorer's buffers stay in cache
    diagnostics = []
    for i, (frame, pred) in enumerate(scored):
        preds.append(pred)
        diagnostics.append({"score_ms": round(lap("score"), 3)})
        if overlays:
            _write_overlay(out / OVERLAY_PATTERN.format(i), frame, next(gts), pred)
        if len(preds) == _WRITE_GROUP or i == n - 1:
            for j, mask in enumerate(preds, i + 1 - len(preds)):
                write_mask(mask, out / PRED_PATTERN.format(j))
            preds.clear()
        lap("write")
    run_doc = {
        "format_version": dataset_io.FORMAT_VERSION,
        "manifest": str(Path(manifest_path).resolve()),
        "params": {
            "r1": params.r1, "r2": params.r2, "s_s": params.s_s,
            "alpha": params.alpha, "mode": params.mode,
            "sigma_c": params.center_sigma, "sigma_s": params.surround_sigma,
        },
        "frames": n,
        "emit_overlays": overlays,
        "timings_ms": {stage: round(timings[stage], 3)
                       for stage in ("load", "bin", "score", "write")},
        "diagnostics": diagnostics,
    }
    _write_file(out / RUN_MANIFEST_NAME, (json.dumps(run_doc, indent=2) + "\n").encode())
    log.info("processed %d frames in %.3fs", n, timings["score"] / 1e3)
    click.echo(f"wrote {n} masks to {out}")


def _write_overlay(path, frame, gt, pred):
    """Side-by-side composite: DVS frame | GT-masked frame | OMS-masked frame."""
    sep = np.full((frame.shape[0], 1), 128, dtype=np.uint8)
    composite = np.hstack([frame * 255, sep, (frame & gt) * 255, sep, (frame & pred) * 255])
    _write_pgm(composite, path)


@main.command("eval")
@click.option("--pred-dir", "pred_dir", required=True, help="Directory of oms_*.pgm masks.")
@click.option("--manifest", "manifest_path", required=True, help="Dataset manifest JSON.")
@click.option("--out", "out_path", default=None, help="Write the JSON report here too.")
@click.option("--verbose", is_flag=True, help="Include per-frame scores in the report.")
@handle_errors
def cmd_eval(pred_dir, manifest_path, out_path, verbose):
    """Evaluate predicted masks against a dataset's ground truth."""
    timings = dict.fromkeys(("load", "bin", "read_masks", "evaluate"), 0.0)
    lap = _laps(timings)
    manifest, frames = open_frames(manifest_path, lap)
    gts = _read_masks(manifest, manifest_path, _read_pgm)  # undecoded, as are the predictions
    pred_dir = _path_prefix(pred_dir)

    def triples():
        for i, (frame, gt) in enumerate(zip(frames, gts)):
            pred = _read_pgm(pred_dir + PRED_PATTERN.format(i), manifest.geometry)
            lap("read_masks")
            yield pred, gt, frame
            lap("evaluate")

    report, frame_scores = _report(_counts(triples()), with_frames=True)
    lap("evaluate")
    log.info("eval timings_ms %s", json.dumps({k: round(v, 3) for k, v in timings.items()}))
    doc = report.to_dict()
    if verbose:
        doc["frames"] = [None if s is None else dataclasses.asdict(s) for s in frame_scores]
    text = json.dumps(doc, indent=2)
    click.echo(text)
    if out_path:
        _write_file(out_path, (text + "\n").encode())


@main.command("synth")
@click.argument("scene_config", type=click.Path())
@click.option("--out", "out_dir", required=True, help="Output dataset directory.")
@handle_errors
def cmd_synth(scene_config, out_dir):
    """Generate a synthetic dataset from a scene config JSON file."""
    config = _read_json(scene_config, "scene config", SceneConfig.from_dict)
    events, masks, timestamps = generate_scene(config)
    manifest_path = write_dataset(out_dir, events, config.geometry, masks, timestamps)
    click.echo(f"wrote {len(masks)} frames, {len(events)} events; manifest at {manifest_path}")


@main.command("kernel-dump")
@click.option("--radius", type=int, required=True)
@click.option("--sigma", type=float, default=None, help="Defaults to radius / 2.")
@handle_errors
def cmd_kernel_dump(radius, sigma):
    """Print a kernel as a plain-text weight grid (12 significant digits)."""
    if sigma is None:
        sigma = radius / 2.0
    click.echo(kernel_to_text(make_feathered_kernel(radius, sigma)))


if __name__ == "__main__":
    main()
