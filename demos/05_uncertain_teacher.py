#!/usr/bin/env python3
"""Distillation under domain shift: plain vs uncertainty-aware student.

A teacher ensemble is fit across several scene draws from one domain, so
its per-pixel scale honestly reflects how much scenes vary. Students then
fit the teacher's depth on a shifted domain: both get the teacher's depth
as the frame's labels, and the uncertain student also gets the teacher std
as the labels' sigma. The plain student trusts the labels blindly; the
uncertain student folds the teacher variance into its loss scale and reports sqrt(teacher_var + own_aleatoric^2) as its depth
error std. Calibration against the shifted domain's ground truth shows
the difference.  The two students' training bundles differ only in that
sigma.
"""

import numpy as np

from scopedepth import (
    CameraIntrinsics,
    LabeledFrame,
    LightModel,
    SceneParams,
    TrainConfig,
    TrainData,
    UncMap,
    auce,
    calibration_curve,
    depth_metrics,
    forward,
    fuse,
    generate_trajectory,
    render_view,
    train_ensemble,
    train_member,
)

K = CameraIntrinsics(48, 48, 31.5, 31.5)


def scene_view(seed, curve_scale=1.0, tex_scale=1.0, light_scale=1.0):
    p = SceneParams(seed=seed, curve_amp_mm=10.0 * curve_scale,
                    texture_contrast=0.55 * tex_scale)
    traj = generate_trajectory(p, 12, 1.0, sway_mm=1.5)
    return render_view(p, traj[6], K, 64, 64, LightModel(intensity=1000 * light_scale))


# domain A: six scene draws; the teacher sees them all
frames = []
for k in range(6):
    _, gt, _ = scene_view(900 + k)
    frames.append(LabeledFrame(depth=gt))

tcfg = TrainConfig(steps=800, learning_rate=1.0, grid=16,
                   depth_init_mm=30.0, weight_decay=1e-7, seed=7000)
members = train_ensemble(TrainData(frames=tuple(frames)), tcfg, members=5)
teacher = fuse([forward(f, 64, 64) for f, _ in members],
               [f.seed for f, _ in members])
sigma_T = teacher.sigma_t()
print(f"teacher sigma_T: median {np.median(sigma_T.data):.2f} mm "
      f"(cross-scene spread it learned)")

# domain B: fresh draw, different curvature/texture/light
_, gtB, _ = scene_view(990, curve_scale=1.25, tex_scale=1.6, light_scale=0.7)
scfg = TrainConfig(steps=800, learning_rate=1.0, grid=16,
                   depth_init_mm=30.0, weight_decay=1e-7, seed=11)

plain, _ = train_member(TrainData(frames=(LabeledFrame(depth=teacher.d_hat),)), scfg)
uncertain, _ = train_member(
    TrainData(frames=(LabeledFrame(depth=teacher.d_hat, sigma=sigma_T),)), scfg)

for name, field, add_teacher_var in (("plain    ", plain, False),
                                     ("uncertain", uncertain, True)):
    d, s = forward(field, 64, 64)
    sig = s.data.astype(np.float64)
    if add_teacher_var:
        sig = np.hypot(sig, sigma_T.data.astype(np.float64))
    m = depth_metrics(gtB, d)
    signed, _ = auce(calibration_curve(gtB, d, UncMap(np.maximum(sig, 1e-9), "std")))
    print(f"{name}: AbsRel {m.abs_rel:.3f}  signed AUCE {signed:+.3f}")

print()
print("the plain student inherits the teacher's domain-A labels with a")
print("near-zero scale, so it is overconfident on domain B; the uncertain")
print("student's error model absorbs the teacher variance")
