"""Seeded load generator: writes each workload's dataset with the package's
own scene generator and dataset writer, before anything is timed.

The scenes are the test fixtures' scene (tests/conftest.py): a 346x260
sensor, 51 rendered frames (50 evaluated), a 1 px/frame camera pan over a
random binary texture and one disk of radius 100 entering from the left.
Only the background density and the burst factor differ between workloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oms import SceneConfig, SceneObject, SensorGeometry
from oms.dataset_io import write_dataset
from oms.synthetic import generate_scene

GEOMETRY = SensorGeometry(346, 260)

# name -> (bg_density, copies of every event). Why each exists is recorded
# in BENCHMARK.json.
WORKLOADS = {
    "br1": (0.0025, 1),       # BR1 fixture: sparse frames, scoring dominates
    "br3_burst": (0.010, 20),  # BR3 fixture, every event a burst of 20
    "dense30": (0.3, 1),      # past the sparse/dense crossover
}


def scene_config(bg_density: float, seed: int) -> SceneConfig:
    """The fixture scene of tests/conftest.py at another background density."""
    return SceneConfig(
        geometry=GEOMETRY,
        n_frames=51,
        bg_density=bg_density,
        camera_velocity=(1.0, 0.0),
        objects=(SceneObject("disk", 100, (2.0, 0.0), (0.0, 130.0)),),
        noise_rate=0.0,
        seed=seed,
    )


def burst(events: np.ndarray, timestamps, copies: int, rng) -> np.ndarray:
    """Repeat every event `copies` times, with the copies' timestamps drawn
    uniformly from the event's own window (t_{k-1}, t_k], then stable-sort by
    time. Each window keeps the same set of pixels, so its binary frame is
    unchanged."""
    ts = np.asarray(timestamps, dtype=np.int64)
    k = np.searchsorted(ts, events["t"].astype(np.int64), side="left")  # window of each event
    lo = np.where(k > 0, ts[np.maximum(k - 1, 0)], -1) + 1
    hi = ts[k]
    rep = np.repeat(events, copies)
    rep["t"] = rng.integers(np.repeat(lo, copies), np.repeat(hi, copies) + 1)
    return rep[np.argsort(rep["t"], kind="stable")]


@dataclass(frozen=True)
class Dataset:
    name: str
    manifest: Path
    events: np.ndarray
    base_events: np.ndarray  # before bursting; equals `events` when copies == 1
    timestamps: np.ndarray
    masks: np.ndarray  # ground truth, (T, H, W) uint8
    generate_ms: float


def generate(name: str, seed: int, out_dir: Path) -> Dataset:
    """Generate and write one workload's dataset under out_dir."""
    bg_density, copies = WORKLOADS[name]
    t0 = time.perf_counter()
    base, masks, timestamps = generate_scene(scene_config(bg_density, seed))
    events = base
    if copies > 1:
        events = burst(base, timestamps, copies, np.random.default_rng((seed, copies)))
    generate_ms = (time.perf_counter() - t0) * 1e3
    manifest = write_dataset(out_dir, events, GEOMETRY, masks, timestamps)
    return Dataset(name, manifest, events, base, np.asarray(timestamps, dtype=np.int64),
                   np.stack(masks), generate_ms)
