#!/usr/bin/env python3
"""Self-supervised depth from photometric consistency alone.

No depth labels: a field is trained to make the neighbor frames, warped
through its predicted depth and the known relative poses, agree with the
target frame. The predicted scale is metric here because poses are, but
evaluation still applies the usual median correction.
"""

import numpy as np

from scopedepth import (
    CameraIntrinsics,
    DepthMap,
    SceneParams,
    TrainConfig,
    TrainData,
    Triplet,
    depth_metrics,
    forward,
    generate_trajectory,
    relative_pose,
    render_views,
    scale_correction,
    train_member,
)

K = CameraIntrinsics(48, 48, 31.5, 31.5)
params = SceneParams(seed=21, curve_amp_mm=10.0, curve_freq=0.06,
                     texture_contrast=0.9, texture_octaves=4)
# a touch of lateral sway: pure forward motion has no parallax at the
# focus of expansion
traj = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
views = render_views(params, traj, K, 64, 64)
target_img, gt, _ = views[6]

triplet = Triplet(
    target=target_img,
    sources=(views[5][0], views[7][0]),
    rel_poses=tuple(relative_pose(traj[6], traj[6 + o]) for o in (-1, 1)),
)
data = TrainData(triplets=(triplet,), K=K)
cfg = TrainConfig(
    steps=1500, learning_rate=1.0, grid=16, depth_init_mm=30.0,
    weight_decay=1e-7, lambda_u=3.0, sigma_min=0.01, seed=5,
)

field, report = train_member(data, cfg)
print(f"loss: {report.losses[0]:.3f} -> {report.losses[-1]:.3f} "
      f"({report.wall_clock:.1f}s)")

d_hat, u_hat = forward(field, 64, 64)
s = scale_correction(gt, d_hat)
m = depth_metrics(gt, DepthMap(d_hat.data.astype(np.float64) * s))
print(f"median scale correction: {s:.3f} (close to 1: poses are metric)")
print(f"AbsRel {m.abs_rel:.3f}  RMSE {m.rmse:.2f} mm  d1 {m.delta1:.3f}")
print(f"photometric uncertainty range: {u_hat.data.min():.4f} .. {u_hat.data.max():.4f}")
