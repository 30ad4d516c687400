"""Synthetic scene generator: desk-scale event streams with ground truth.

A scene is a binary background texture translated toroidally by a constant
camera velocity, plus opaque moving objects (disks or rectangles) painted
on top. Frame k is rendered at t = k * 1000 us; an event is emitted for
every pixel whose rendered value changes between consecutive frames (+1
for 0->1, -1 for 1->0), timestamped at the later frame. Optional Poisson
noise events are scattered uniformly per frame.

Randomness comes from numpy's default_rng (PCG64), so a fixed seed fully
determines the scene. Ground-truth masks are the object footprints; they
never depend on camera velocity or noise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError, ParseError, _check_number, _check_type, _json
from .events import _MAX_SIDE, SensorGeometry, _as_geometry, _decode_geometry, _from_columns
from .events import bin_events
from .metrics import evaluate_sequence

FRAME_DT_US = 1000

SHAPES = ("disk", "rect")


@dataclass(frozen=True)
class SceneObject:
    """One moving object. `size` is the disk radius or the rectangle side
    length in pixels; `start` is the object center (x, y) at frame 0;
    `velocity` is (vx, vy) in pixels per frame."""

    shape: str
    size: int
    velocity: tuple[float, float]
    start: tuple[float, float]

    def __post_init__(self):
        if not (isinstance(self.shape, str) and self.shape in SHAPES):
            raise ParameterError(f"object shape must be one of {SHAPES}, got {self.shape!r}")
        _check_number(ParameterError, "object size", self.size, True, 1, math.inf)
        object.__setattr__(self, "velocity", _pair("object velocity", self.velocity, -_MAX_SIDE))
        object.__setattr__(self, "start", _pair("object start", self.start, 0))


def _pair(name: str, value, lo) -> tuple:
    """value as an (x, y) tuple of two numbers in [lo, 65535]."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ParameterError(f"{name} must be an (x, y) pair, got {value!r}")
    return tuple(_check_number(ParameterError, f"{name} {axis}", v, False, lo, _MAX_SIDE)
                 for axis, v in zip("xy", value))


@dataclass(frozen=True)
class SceneConfig:
    geometry: SensorGeometry
    n_frames: int
    bg_density: float
    camera_velocity: tuple[float, float]
    objects: tuple[SceneObject, ...]
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "geometry", _as_geometry(self.geometry))
        objects = self.objects if isinstance(self.objects, (tuple, list)) else [None]
        if not all(isinstance(o, SceneObject) for o in objects):
            raise ParameterError(f"objects must be a list of SceneObject, got {self.objects!r}")
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "camera_velocity",
                           _pair("camera_velocity", self.camera_velocity, -_MAX_SIDE))
        w, h = self.geometry.width, self.geometry.height
        _check_number(ParameterError, "n_frames", self.n_frames, True, 2, math.inf)
        _check_number(ParameterError, "bg_density", self.bg_density, False, 0, 1, open=True)
        # noise_rate is the mean count of noise events per frame: at most one per pixel
        _check_number(ParameterError, "noise_rate", self.noise_rate, False, 0, w * h)
        _check_number(ParameterError, "seed", self.seed, True, 0, math.inf)
        for obj in self.objects:
            x, y = obj.start
            if not (0 <= x < w and 0 <= y < h):
                raise ParameterError(f"object start {obj.start} outside {w}x{h} frame")
            extent = 2 * obj.size if obj.shape == "disk" else obj.size
            if extent > min(w, h):
                raise ParameterError(f"object of extent {extent} does not fit a {w}x{h} frame")

    def to_dict(self) -> dict:
        """The JSON document that from_dict reads; pairs stay tuples."""
        return {**asdict(self), "geometry": self.geometry._asdict(),
                "objects": [asdict(o) for o in self.objects]}

    @classmethod
    def from_dict(cls, d) -> "SceneConfig":
        """ParseError names a missing field or a part of the wrong JSON type."""
        try:
            return cls(
                geometry=_decode_geometry(_json("scene config", d)["geometry"]),
                n_frames=d["n_frames"],
                bg_density=d["bg_density"],
                camera_velocity=d["camera_velocity"],
                objects=tuple(
                    SceneObject(**{k: _json("object", o)[k]
                                   for k in ("shape", "size", "velocity", "start")})
                    for o in _json("objects", d["objects"], list)
                ),
                noise_rate=d.get("noise_rate", 0.0),
                seed=d.get("seed", 0),
            )
        except KeyError as exc:
            raise ParseError(f"scene config missing field {exc}") from exc


def _object_footprint(obj: SceneObject, frame_index: int, shape: tuple[int, int]) -> np.ndarray:
    h, w = shape
    cx = obj.start[0] + frame_index * obj.velocity[0]
    cy = obj.start[1] + frame_index * obj.velocity[1]
    # Sub-pixel positions accumulate as reals and are rounded at render time.
    cx, cy = round(cx), round(cy)
    mask = np.zeros((h, w), dtype=bool)
    if obj.shape == "disk":
        yy, xx = np.ogrid[:h, :w]
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= obj.size**2
    else:
        half = obj.size // 2
        x0, x1 = cx - half, cx - half + obj.size
        y0, y1 = cy - half, cy - half + obj.size
        mask[max(y0, 0) : max(y1, 0), max(x0, 0) : max(x1, 0)] = True
    return mask


def _render_frames(config: SceneConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Rendered boolean frames and per-frame object footprints, frame 0..n-1."""
    rng = np.random.default_rng(_check_type("config", config, SceneConfig).seed)
    h, w = config.geometry.shape
    bg = rng.random((h, w)) < config.bg_density
    vx, vy = config.camera_velocity
    frames = []
    footprints = []
    for k in range(config.n_frames):
        shifted = np.roll(bg, (round(k * vy), round(k * vx)), axis=(0, 1))
        fp = np.zeros((h, w), dtype=bool)
        for obj in config.objects:
            fp |= _object_footprint(obj, k, (h, w))
        frames.append(shifted | fp)
        footprints.append(fp)
    return frames, footprints


def generate_scene(
    config: SceneConfig,
) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """Generate (events, ground-truth masks, mask timestamps).

    Masks and timestamps cover frames 1..n-1 (frame 0 is the reference
    image and produces no events). Event order inside a frame is row-major
    change pixels followed by noise events; timestamps are non-decreasing.
    """
    frames, footprints = _render_frames(config)
    # Independent noise stream so footprints/frames stay noise-free.
    rng = np.random.default_rng((config.seed, 1))
    h, w = config.geometry.shape
    chunks, masks, timestamps = [], [], []
    for k in range(1, config.n_frames):
        t = k * FRAME_DT_US
        ys, xs = np.nonzero(frames[k] != frames[k - 1])
        chunks.append(_from_columns(t, xs, ys, np.where(frames[k][ys, xs], 1, -1)))
        n_noise = int(rng.poisson(config.noise_rate))
        if n_noise:
            chunks.append(_from_columns(t, rng.integers(0, w, n_noise), rng.integers(0, h, n_noise),
                                        rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)))
        masks.append(footprints[k].astype(np.uint8))
        timestamps.append(t)
    return np.concatenate(chunks), masks, timestamps  # n_frames >= 2: one chunk at least


def scene_br(config: SceneConfig) -> float:
    """Mean background-to-foreground ratio over the generated frames, the
    br_mean of evaluate_sequence on the binned frames.

    Frames with no activity inside the ground truth are excluded; if every
    frame is excluded the result is +inf.
    """
    if not _check_type("config", config, SceneConfig).objects:
        raise ParameterError("scene_br needs at least one object")
    events, masks, timestamps = generate_scene(config)
    report = evaluate_sequence(masks, masks, bin_events(events, timestamps, config.geometry))
    return report.br_mean if report.frames_evaluated else math.inf
