import contextlib
import threading

import numpy as np
import pytest

from oms import SceneConfig, SceneObject, SensorGeometry, accumulate_frame, window_events
from oms.synthetic import generate_scene

# Desk-scale stand-ins for the real datasets. A large disk enters from the
# left edge so its trailing edge stays off-sensor: all object events land
# inside the ground truth. Background texture + 1 px/frame camera pan supply
# the ego-motion events; bg_density tunes the background-to-foreground ratio.

GEOMETRY = SensorGeometry(346, 260)


def scene_config(bg_density: float, seed: int = 7) -> SceneConfig:
    return SceneConfig(
        geometry=GEOMETRY,
        n_frames=51,  # 50 evaluated frames
        bg_density=bg_density,
        camera_velocity=(1.0, 0.0),
        objects=(SceneObject("disk", 100, (2.0, 0.0), (0.0, 130.0)),),
        noise_rate=0.0,
        seed=seed,
    )


BR1_CONFIG = scene_config(0.0025)   # measured br ~= 1.07
BR3_CONFIG = scene_config(0.010)    # measured br ~= 3.51


def pipeline_inputs(config: SceneConfig):
    """(dvs frames, gt masks) for a scene, via the event-core pipeline."""
    events, gts, timestamps = generate_scene(config)
    windows = window_events(events, timestamps)
    frames = [accumulate_frame(w, config.geometry) for w in windows]
    return frames, gts


@pytest.fixture(scope="session")
def br1_data():
    return pipeline_inputs(BR1_CONFIG)


@pytest.fixture(scope="session")
def br3_data():
    return pipeline_inputs(BR3_CONFIG)


@contextlib.contextmanager
def thread_starts():
    """A list of every threading.Thread started inside the with-block."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", recording)
        yield started


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
