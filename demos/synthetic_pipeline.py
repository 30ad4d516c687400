"""End-to-end walk-through on a synthetic scene.

A textured background pans under a 1 px/frame camera drift while a large
disk enters from the left sensor edge. We turn the resulting event stream
into binary frames, run the center-surround motion filter, and score the
predicted masks against the generated ground truth.

Run:  python3 demos/synthetic_pipeline.py
"""

from oms import (
    OmsParams,
    SceneConfig,
    SceneObject,
    SensorGeometry,
    accumulate_frame,
    evaluate_sequence,
    generate_scene,
    oms_sequence,
    scene_br,
    window_events,
)

config = SceneConfig(
    geometry=SensorGeometry(346, 260),
    n_frames=51,
    bg_density=0.0025,
    camera_velocity=(1.0, 0.0),
    objects=(SceneObject("disk", 100, (2.0, 0.0), (0.0, 130.0)),),
    noise_rate=0.0,
    seed=7,
)

events, gt_masks, timestamps = generate_scene(config)
print(f"scene: {len(events)} events over {len(timestamps)} frames, "
      f"background-to-foreground ratio {scene_br(config):.2f}")

# Events between consecutive ground-truth timestamps collapse into one
# binary frame per timestamp (polarity and exact timing are discarded).
windows = window_events(events, timestamps)
frames = [accumulate_frame(w, config.geometry) for w in windows]

# alpha=0.13 sits inside the achievable score range for normalized kernels.
params = OmsParams(alpha=0.13)
preds = oms_sequence(frames, params)

report = evaluate_sequence(preds, gt_masks, frames)
print(f"mIoU {report.mean_iou:.2f}%  DR {report.detection_rate:.2f}%  "
      f"({report.frames_evaluated} frames evaluated, "
      f"{report.frames_skipped} skipped)")
