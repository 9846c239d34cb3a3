#!/usr/bin/env python3
"""Train a small supervised ensemble and decompose its uncertainty.

Five depth fields are fit to the same ground-truth labels from different
random inits, then fused into mean depth plus aleatoric / epistemic /
total variance maps. Evaluates depth metrics and interval calibration.
"""

from scopedepth import (
    CameraIntrinsics,
    LabeledFrame,
    LossConfig,
    SceneParams,
    TrainConfig,
    TrainData,
    auce,
    calibration_curve,
    depth_metrics,
    forward,
    fuse,
    generate_trajectory,
    render_view,
    train_ensemble,
)

K = CameraIntrinsics(48, 48, 31.5, 31.5)
params = SceneParams(seed=21, texture_contrast=0.9, texture_octaves=4)
traj = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
_, gt, _ = render_view(params, traj[6], K, 64, 64)

data = TrainData(frames=(LabeledFrame(depth=gt),))
cfg = TrainConfig(steps=800, learning_rate=1.0, grid=16,
                  depth_init_mm=30.0, loss=LossConfig(weight_decay=1e-7), seed=100)

results = train_ensemble(data, cfg, members=5)
print("final losses:", [f"{r.losses[-1]:.3f}" for _, r in results])

out = fuse([forward(f, 64, 64) for f, _ in results], [f.seed for f, _ in results])
m = depth_metrics(gt, out.d_hat)
print(f"fused AbsRel {m.abs_rel:.4f}  RMSE {m.rmse:.3f} mm  d1 {m.delta1:.3f}")
print(f"variance decomposition: aleatoric {out.var_a.data.mean():.4f} "
      f"epistemic {out.var_e.data.mean():.5f} (mean mm^2)")

curve = calibration_curve(gt, out.d_hat, out.sigma_t())
signed, absolute = auce(curve)
print(f"AUCE signed {signed:+.3f} absolute {absolute:.3f} "
      f"({'overconfident' if signed > 0 else 'underconfident'})")
