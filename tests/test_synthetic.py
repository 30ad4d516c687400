import numpy as np
import pytest

from oms import (
    ParameterError,
    SceneConfig,
    SceneObject,
    SensorGeometry,
    scene_br,
)
from oms.synthetic import _render_frames, generate_scene

GEOM = SensorGeometry(64, 48)


def small_scene(**overrides):
    base = dict(
        geometry=GEOM,
        n_frames=10,
        bg_density=0.05,
        camera_velocity=(1.0, 0.0),
        objects=(SceneObject("disk", 5, (1.0, 0.5), (20.0, 20.0)),),
        noise_rate=0.0,
        seed=42,
    )
    base.update(overrides)
    return SceneConfig(**base)


class TestGenerateScene:
    def test_static_camera_events_within_consecutive_footprints(self):
        config = small_scene(camera_velocity=(0.0, 0.0))
        events, masks, ts = generate_scene(config)
        _, footprints = _render_frames(config)
        for k, t in enumerate(ts, start=1):
            sel = events[events["t"] == t]
            union = footprints[k] | footprints[k - 1]
            assert union[sel["y"], sel["x"]].all()

    def test_background_only_recount(self):
        # Oracle: pixels whose texture value differs after the shift.
        config = small_scene(objects=(), camera_velocity=(1.0, 0.0))
        events, masks, ts = generate_scene(config)
        frames, _ = _render_frames(config)
        for k, t in enumerate(ts, start=1):
            expected = int(np.count_nonzero(frames[k] != frames[k - 1]))
            assert int((events["t"] == t).sum()) == expected

    def test_seeded_determinism(self):
        a = generate_scene(small_scene(noise_rate=3.0))
        b = generate_scene(small_scene(noise_rate=3.0))
        assert np.array_equal(a[0], b[0])
        assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
        assert a[2] == b[2]

    def test_gt_independent_of_camera_and_noise(self):
        masks_a = generate_scene(small_scene())[1]
        masks_b = generate_scene(small_scene(camera_velocity=(3.0, 2.0), noise_rate=10.0))[1]
        assert all(np.array_equal(x, y) for x, y in zip(masks_a, masks_b))

    def test_frame_quantized_timestamps(self):
        events, masks, ts = generate_scene(small_scene())
        assert ts == [1000 * k for k in range(1, 10)]
        assert set(np.unique(events["t"])) <= set(ts)
        assert len(masks) == len(ts) == 9

    def test_oversized_object_rejected(self):
        with pytest.raises(ParameterError):
            small_scene(objects=(SceneObject("disk", 40, (0.0, 0.0), (20.0, 20.0)),))

    def test_start_outside_frame_rejected(self):
        with pytest.raises(ParameterError):
            small_scene(objects=(SceneObject("disk", 3, (0.0, 0.0), (99.0, 20.0)),))

    def test_config_round_trip(self):
        config = small_scene(noise_rate=2.5)
        assert SceneConfig.from_dict(config.to_dict()) == config


class TestSceneBr:
    def test_entering_object_static_camera_is_zero(self):
        # Static background and a square entering from the left edge: the
        # revealed (trailing) column stays off-sensor, so every event lands
        # inside the ground truth. (A disk would leak a few trailing-tip
        # events on-sensor; an axis-aligned square does not.)
        config = SceneConfig(
            geometry=SensorGeometry(64, 48),
            n_frames=10,
            bg_density=0.1,
            camera_velocity=(0.0, 0.0),
            objects=(SceneObject("rect", 20, (1.0, 0.0), (0.0, 24.0)),),
            noise_rate=0.0,
            seed=1,
        )
        assert scene_br(config) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_frame_oracle(self, seed):
        # Mean of outside / inside over the frames with activity inside the
        # ground truth, with frames painted from the raw event columns.
        config = small_scene(seed=seed, noise_rate=20.0)
        events, masks, timestamps = generate_scene(config)
        ratios = []
        for k, (mask, t) in enumerate(zip(masks, timestamps)):
            window = events[(events["t"] <= t) & (events["t"] > (timestamps[k - 1] if k else -1))]
            frame = np.zeros(GEOM.shape, bool)
            frame[window["y"], window["x"]] = True
            inside = int((frame & (mask > 0)).sum())
            if inside:
                ratios.append(int((frame & (mask == 0)).sum()) / inside)
        assert ratios and scene_br(config) == pytest.approx(np.mean(ratios), rel=0, abs=1e-12)

    def test_no_activity_inside_is_inf(self):
        # A static object under a static camera fires no event inside it.
        config = small_scene(camera_velocity=(0.0, 0.0), noise_rate=0.0,
                             objects=(SceneObject("rect", 6, (0.0, 0.0), (30.0, 20.0)),))
        assert scene_br(config) == float("inf")

    def test_requires_objects(self):
        with pytest.raises(ParameterError):
            scene_br(small_scene(objects=()))

    def test_balanced_fixture(self):
        from conftest import BR1_CONFIG

        assert abs(scene_br(BR1_CONFIG) - 1.0) <= 0.2

    def test_background_dominant_fixture(self):
        from conftest import BR3_CONFIG

        assert scene_br(BR3_CONFIG) > 3.0
