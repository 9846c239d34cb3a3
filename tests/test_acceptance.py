"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale
experiment configurations (scene geometry, learning rates, step counts)
are frozen here; each test states its tolerance inline.
"""

import time

import numpy as np
import pytest
from _audit import audit_random_fields
from _reference import backproject, project, warp_pixel

from scopedepth.cli import main as cli_main
from scopedepth.ensemble import fuse, fuse_arrays, selfsup_fuse
from scopedepth.geometry import (
    CameraIntrinsics,
    Pose,
    relative_pose,
    synthesize_warped_image,
)
from scopedepth.imagery import DepthMap, Image, UncMap
from scopedepth.losses import (
    LossConfig,
    l1_nll_arrays,
    pixel_weights,
    prior_loss,
    supervised_nll_arrays,
)
from scopedepth.metrics import (
    CalibrationCurve,
    auce,
    calibration_curve,
    default_p_grid,
    depth_metrics,
    scale_correction,
)
from scopedepth.photometry import (
    _C1,
    edge_weights,
    smoothness_and_grad,
    ssim_moments,
    ssim_terms,
)
from scopedepth.predictor import TrainConfig, forward
from scopedepth.synthcolon import (
    LightModel,
    SceneParams,
    generate_trajectory,
    render_view,
    simulate_sfm_labels,
)
from scopedepth.trainer import (
    LabeledFrame,
    Regime,
    TrainData,
    Triplet,
    train_ensemble,
    train_member,
)

pytestmark = pytest.mark.acceptance

K64 = CameraIntrinsics(48, 48, 31.5, 31.5)


def _report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient audit, every regime


def test_criterion_1_gradient_audit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    labels = DepthMap(rng.uniform(15, 40, (12, 12)).astype(np.float32))
    sup = TrainData(frames=(LabeledFrame(depth=labels),))
    d_sfm, m_sfm = simulate_sfm_labels(labels, seed=8, hole_fraction=0.2,
                                       noise_rel=0.05)
    sfm = TrainData(frames=(LabeledFrame(depth=d_sfm, mask=m_sfm),))
    d_teacher = DepthMap(rng.uniform(15, 40, (12, 12)).astype(np.float32))
    sigma_teacher = UncMap(rng.uniform(0.4, 2.0, (12, 12)).astype(np.float32), "std")
    plain = TrainData(frames=(LabeledFrame(depth=d_teacher),))
    students = TrainData(frames=(LabeledFrame(depth=d_teacher, sigma=sigma_teacher),))
    K16 = CameraIntrinsics(16, 16, 7.5, 7.5)
    params = SceneParams(seed=4)
    traj = generate_trajectory(params, 4, 0.8)
    views = [render_view(params, p, K16, 16, 16) for p in traj]
    trip = Triplet(
        target=views[1][0], sources=(views[0][0], views[3][0]),
        rel_poses=tuple(relative_pose(traj[1], traj[s]) for s in (0, 3)),
    )
    selfsup = TrainData(triplets=(trip,), K=K16)

    lc = LossConfig(weight_decay=1e-4)
    lc_ss = LossConfig(weight_decay=1e-4, lambda_u=0.05)
    worst = {}
    worst["supervised-gt"] = max(
        audit_random_fields(Regime.SUPERVISED_GT, sup, 20, loss_cfg=lc))
    worst["supervised-sfm"] = max(
        audit_random_fields(Regime.SUPERVISED_SFM, sfm, 20, loss_cfg=lc))
    worst["plain-student"] = max(
        audit_random_fields(Regime.PLAIN_STUDENT, plain, 20, loss_cfg=lc))
    worst["uncertain-student"] = max(
        audit_random_fields(Regime.UNCERTAIN_STUDENT, students, 20, loss_cfg=lc))
    worst["self-supervised"] = max(
        audit_random_fields(Regime.SELF_SUPERVISED, selfsup, 20, loss_cfg=lc_ss))
    elapsed = time.perf_counter() - t0
    ok = (
        all(worst[r] < 1e-4 for r in ("supervised-gt", "supervised-sfm",
                                      "plain-student", "uncertain-student"))
        and worst["self-supervised"] < 1e-3
        and elapsed < 60.0
    )
    detail = (
        "worst rel err "
        + " ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" in {elapsed:.1f}s (< 1e-4 supervised/students, < 1e-3 selfsup, < 60s)"
    )
    _report(ok, "criterion 1 gradient audit", detail)


# ---------------------------------------------------------------------------
# criterion 2: law of total variance against a brute-force two-pass oracle


def test_criterion_2_total_variance():
    rng = np.random.default_rng(1)
    worst_rel = 0.0
    exact = True
    for _ in range(100):
        M = int(rng.integers(1, 8))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        depths = [rng.uniform(1, 50, (h, w)).astype(np.float32) for _ in range(M)]
        sigmas = [rng.uniform(0, 3, (h, w)).astype(np.float32) for _ in range(M)]
        d_hat, var_a, var_e, var_t = fuse_arrays(list(depths), list(sigmas))
        # identity is evaluated, not re-derived: 0 ulp by construction
        exact &= np.array_equal(var_t, var_a + var_e)
        # brute-force two-pass oracle in float64
        for i in range(h):
            for j in range(w):
                mean = sum(float(d[i, j]) for d in depths) / M
                va = sum(float(s[i, j]) ** 2 for s in sigmas) / M
                ve = sum((mean - float(d[i, j])) ** 2 for d in depths) / M
                for got, want in ((d_hat[i, j], mean), (var_a[i, j], va),
                                  (var_e[i, j], ve), (var_t[i, j], va + ve)):
                    denom = max(abs(want), 1e-30)
                    worst_rel = max(worst_rel, abs(got - want) / denom)
        # typed path: identity must also hold on stored float32 maps
        out = fuse(
            [(DepthMap(d), UncMap(s, "std")) for d, s in zip(depths, sigmas)]
        )
        exact &= np.array_equal(out.var_t.data, out.var_a.data + out.var_e.data)
    ok = exact and worst_rel < 1e-12
    _report(ok, "criterion 2 law of total variance",
            f"identity exact={exact}, oracle worst rel err {worst_rel:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: calibration sanity at 1e6 pixels


def test_criterion_3_calibration_sanity():
    rng = np.random.default_rng(2)
    n = 1000
    gt = rng.uniform(10, 50, (n, n))
    sigma = rng.uniform(0.5, 3.0, (n, n))
    pred = gt + sigma * rng.standard_normal((n, n))
    d = DepthMap(gt)
    dh = DepthMap(pred)
    curve9 = calibration_curve(d, dh, UncMap(sigma.astype(np.float32), "std"),
                               p_grid=np.arange(1, 10) / 10.0)
    cov_dev = float(np.abs(curve9.coverage - curve9.p_grid).max())
    signed, _ = auce(calibration_curve(d, dh, UncMap(sigma.astype(np.float32), "std")))
    s_half, _ = auce(calibration_curve(d, dh, UncMap((sigma / 2).astype(np.float32), "std")))
    s_double, _ = auce(calibration_curve(d, dh, UncMap((sigma * 2).astype(np.float32), "std")))
    ok = abs(signed) < 0.02 and cov_dev < 0.005 and s_half > 0.1 and s_double < -0.1
    _report(ok, "criterion 3 calibration sanity",
            f"|signed| {abs(signed):.4f} (<0.02), coverage dev {cov_dev:.4f} "
            f"(<0.005), half {s_half:+.3f} (> +0.1), double {s_double:+.3f} (< -0.1)")


# ---------------------------------------------------------------------------
# criterion 4: supervised / SfM / self-supervised quality ladder


ACCEPT_SCENE = SceneParams(seed=21, curve_amp_mm=10.0, curve_freq=0.06,
                           texture_contrast=0.9, texture_octaves=4)


def _fused_absrel(gt, regime, data, cfg, base_seed, selfsup=False, median=False):
    results = train_ensemble(regime, data, cfg, 5, base_seed)
    preds = [forward(f, 64, 64) for f, _ in results]
    seeds = [f.seed for f, _ in results]
    out = (selfsup_fuse([p[0] for p in preds], seeds) if selfsup
           else fuse(preds, seeds))
    d = out.d_hat.data.astype(np.float64)
    if median:
        d = d * scale_correction(gt, out.d_hat)
    return depth_metrics(gt, DepthMap(d)).abs_rel


def test_criterion_4_supervision_ladder():
    t0 = time.perf_counter()
    traj = generate_trajectory(ACCEPT_SCENE, 12, 1.0, sway_mm=2.5)
    views = [render_view(ACCEPT_SCENE, p, K64, 64, 64) for p in traj]
    img, gt, _ = views[6]

    sup_cfg = TrainConfig(steps=800, learning_rate=1.0, grid=20,
                          depth_init_mm=30.0, jitter=0.05,
                          loss=LossConfig(weight_decay=1e-7), seed=0)
    a_gt = _fused_absrel(
        gt, Regime.SUPERVISED_GT,
        TrainData(frames=(LabeledFrame(depth=gt),)), sup_cfg, 100,
    )
    d_sfm, m_sfm = simulate_sfm_labels(gt, seed=501, hole_fraction=0.3,
                                       noise_rel=0.05, global_scale=0.7)
    a_sfm = _fused_absrel(
        gt, Regime.SUPERVISED_SFM,
        TrainData(frames=(LabeledFrame(depth=d_sfm, mask=m_sfm),)),
        sup_cfg, 100, median=True,
    )
    trip = Triplet(
        target=img, sources=(views[5][0], views[7][0]),
        rel_poses=tuple(relative_pose(traj[6], traj[6 + o]) for o in (-1, 1)),
    )
    ss_cfg = TrainConfig(steps=1500, learning_rate=1.0, grid=16,
                         depth_init_mm=30.0, jitter=0.05,
                         loss=LossConfig(weight_decay=1e-7, lambda_u=3.0,
                                         sigma_min=0.01), seed=0)
    a_ss = _fused_absrel(
        gt, Regime.SELF_SUPERVISED,
        TrainData(triplets=(trip,), K=K64),
        ss_cfg, 100, selfsup=True, median=True,
    )
    elapsed = time.perf_counter() - t0
    ok = (a_gt < 0.05) and (a_gt < a_sfm < 0.20) and (a_ss < 0.20) and elapsed < 600
    _report(ok, "criterion 4 supervision ladder",
            f"GT {a_gt:.4f} (<0.05) < SfM {a_sfm:.4f} (<0.20), "
            f"selfsup {a_ss:.4f} (<0.20), {elapsed:.0f}s (<600)")


# ---------------------------------------------------------------------------
# criterion 5: view-synthesis consistency over 10 random scenes


def test_criterion_5_view_synthesis():
    errs = []
    for seed in range(10):
        params = SceneParams(seed=seed)
        traj = generate_trajectory(params, 3, 0.35)
        views = [render_view(params, p, K64, 64, 64) for p in traj]
        tgt_img, tgt_depth, tgt_hit = views[1]
        for src in (0, 2):
            rel = relative_pose(traj[1], traj[src])
            warped, valid = synthesize_warped_image(views[src][0], tgt_depth, rel, K64)
            sel = valid.data & tgt_hit.data
            l1 = np.abs(
                warped.data.astype(np.float64) - tgt_img.data.astype(np.float64)
            ).mean(axis=2)
            errs.append(float(l1[sel].mean()))
    mean_err = float(np.mean(errs))
    ok = mean_err < 0.02
    _report(ok, "criterion 5 view synthesis",
            f"mean L1 {mean_err:.4f} (< 0.02), worst scene {max(errs):.4f}")


# ---------------------------------------------------------------------------
# criterion 6: uncertain teacher vs plain student under domain shift


def _domain_view(seed, curve_scale=1.0, tex_scale=1.0, light_scale=1.0):
    p = SceneParams(seed=seed, curve_amp_mm=10.0 * curve_scale,
                    texture_contrast=0.55 * tex_scale)
    traj = generate_trajectory(p, 12, 1.0, sway_mm=1.5)
    light = LightModel(intensity=1000.0 * light_scale)
    return render_view(p, traj[6], K64, 64, 64, light)


def _student_scores(rep_seed):
    # teacher ensemble across six domain-A draws; aleatoric scale learns the
    # cross-scene spread per pixel
    frames = []
    for k in range(6):
        _, gt_a, _ = _domain_view(rep_seed * 100 + k)
        frames.append(LabeledFrame(depth=gt_a))
    frames = tuple(frames)
    tcfg = TrainConfig(steps=800, learning_rate=1.0, grid=16,
                       depth_init_mm=30.0, jitter=0.05,
                       loss=LossConfig(weight_decay=1e-7), seed=0)
    members = train_ensemble(Regime.SUPERVISED_GT, TrainData(frames=frames),
                             tcfg, 5, rep_seed * 1000)
    teacher = fuse([forward(f, 64, 64) for f, _ in members],
                   [f.seed for f, _ in members])
    sigma_T = teacher.sigma_t()
    # domain B: fresh draw, shifted curvature / texture / light
    _, gtB, _ = _domain_view(rep_seed * 100 + 77, curve_scale=1.25,
                             tex_scale=1.6, light_scale=0.7)
    scfg = TrainConfig(steps=800, learning_rate=1.0, grid=16,
                       depth_init_mm=30.0, jitter=0.05,
                       loss=LossConfig(weight_decay=1e-7), seed=rep_seed * 2000)
    out = {}
    for name, regime, sig_teacher in (
        ("plain", Regime.PLAIN_STUDENT, None),
        ("uncertain", Regime.UNCERTAIN_STUDENT, sigma_T),
    ):
        data = TrainData(frames=(
            LabeledFrame(depth=teacher.d_hat, sigma=sig_teacher),
        ))
        field, _ = train_member(regime, data, scfg)
        d, s = forward(field, 64, 64)
        sig = s.data.astype(np.float64)
        if sig_teacher is not None:
            # the uncertain student models its depth error as the sum of the
            # teacher variance and its own aleatoric variance
            sig = np.hypot(sig, sigma_T.data.astype(np.float64))
        m = depth_metrics(gtB, d)
        signed, _ = auce(
            calibration_curve(gtB, d, UncMap(np.maximum(sig, 1e-9), "std"))
        )
        out[name] = (m.abs_rel, signed)
    return out


def test_criterion_6_uncertain_teacher():
    t0 = time.perf_counter()
    reps = [_student_scores(r) for r in range(1, 6)]
    plain_auce = np.median([abs(r["plain"][1]) for r in reps])
    unc_auce = np.median([abs(r["uncertain"][1]) for r in reps])
    plain_abs = np.median([r["plain"][0] for r in reps])
    unc_abs = np.median([r["uncertain"][0] for r in reps])
    ok = unc_auce <= plain_auce and unc_abs <= 1.05 * plain_abs
    _report(ok, "criterion 6 uncertain teacher",
            f"median |AUCE| uncertain {unc_auce:.3f} <= plain {plain_auce:.3f}; "
            f"median AbsRel uncertain {unc_abs:.3f} <= 1.05*plain "
            f"({1.05 * plain_abs:.3f}); {time.perf_counter() - t0:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: unit-vector battery of worked examples


def test_criterion_7_example_battery():
    checks = []

    def ck(cond, label):
        checks.append((bool(cond), label))

    # geometry
    ck(project(CameraIntrinsics(1, 1, 0, 0), (0, 0, 1)) == (0.0, 0.0), "project axis")
    ck(project(CameraIntrinsics(100, 100, 50, 50), (1, 2, 2)) == (100.0, 150.0),
       "project hand case")
    ck(np.allclose(backproject(CameraIntrinsics(100, 100, 50, 50), (100, 150), 2),
                   (1, 2, 2)), "backproject inverse")
    jp, okf = warp_pixel((50, 50), 2.0, CameraIntrinsics(100, 100, 50, 50),
                         Pose(np.eye(3), [0, 0, -1]))
    ck(okf and np.allclose(jp, (50, 50)), "warp hand case")
    jp, okf = warp_pixel((7.5, 3.25), 5.0, CameraIntrinsics(90, 80, 10, 20),
                         Pose(np.eye(3), np.zeros(3)))
    ck(okf and np.allclose(jp, (7.5, 3.25), atol=1e-12), "warp identity")

    # photometry
    a = Image(np.full((5, 5, 1), 0.2, np.float32))
    b = Image(np.full((5, 5, 1), 0.8, np.float32))
    want = (2 * 0.2 * 0.8 + _C1) / (0.2**2 + 0.8**2 + _C1)
    ssim = lambda x, y: ssim_terms(x.planes(), y.planes(),
                                   ssim_moments(x.planes()))[0].mean(axis=0)
    ck(np.allclose(ssim(a, b), want, atol=1e-6), "ssim constants")
    rng = np.random.default_rng(3)
    img = Image(rng.uniform(0, 1, (5, 5, 3)).astype(np.float32))
    ck(np.allclose(ssim(img, img), 1.0), "ssim identity")
    step = DepthMap(np.array([[2.0, 4.0]], dtype=np.float32))
    flat = Image(np.full((1, 2, 1), 0.5, np.float32))
    fs = smoothness_and_grad(step.data, edge_weights(flat))[0]
    ck(np.isclose(fs[0, 0], 2.0 / 3.0), "smoothness unit step")
    # [0,1] images cap |dx gray| at 1, so the steepest realizable edge
    # attenuates the step by e^-1
    edged = Image(np.array([[[0.0], [1.0]]], dtype=np.float32))
    fs_e = smoothness_and_grad(step.data, edge_weights(edged))[0]
    ck(np.isclose(fs_e[0, 0], (2.0 / 3.0) * np.exp(-1.0)), "smoothness edge")

    # losses
    one = lambda v: np.array([[v]], dtype=np.float64)
    t = pixel_weights(np.array([[True]]))
    lc = LossConfig(lambda_u=0.0, weight_decay=0.0)
    ck(np.isclose(
        supervised_nll_arrays(one(3.0), one(1.0), one(2.0), *t, lc).scalar,
        1.0 + np.log(2.0)), "supervised 1+ln2")
    ck(np.isclose(
        l1_nll_arrays(one(0.2), one(0.1), *t, lc).scalar,
        0.2 / 0.1 + np.log(0.1)), "selfsup hand case")
    ck(np.isclose(
        supervised_nll_arrays(one(2.0), one(1.0), one(1.0), *t, lc,
                              var_label=one(1.0)).scalar,
        1 / np.sqrt(2) + np.log(np.sqrt(2))), "uncertain sqrt2")
    pl, pg = prior_loss(np.array([3.0, 4.0]), LossConfig(weight_decay=1.0))
    ck(pl == 25.0 and np.allclose(pg, [6.0, 8.0]), "prior 3-4-5")

    # ensemble
    def mem(dv, sv):
        return (DepthMap(np.full((2, 2), dv, np.float32)),
                UncMap(np.full((2, 2), sv, np.float32), "std"))

    out = fuse([mem(1, 1), mem(2, 1), mem(3, 2)])
    ck(np.allclose(out.d_hat.data, 2) and np.allclose(out.var_e.data, 2 / 3, rtol=1e-6)
       and np.allclose(out.var_a.data, 2, rtol=1e-6)
       and np.allclose(out.var_t.data, 8 / 3, rtol=1e-6), "fuse M=3")
    out2 = selfsup_fuse([DepthMap(np.full((2, 2), 2.0, np.float32)),
                         DepthMap(np.full((2, 2), 4.0, np.float32))])
    ck(np.allclose(out2.d_hat.data, 3) and np.allclose(out2.var_t.data, 1),
       "selfsup fuse")

    # metrics
    m = depth_metrics(DepthMap(one(2.0)), DepthMap(one(1.0)))
    ck(m.abs_rel == 1 and m.sq_rel == 1 and m.rmse == 1
       and np.isclose(m.rmse_log, np.log(2), atol=1e-6)
       and m.delta1 == 0 and m.delta3 == 0, "metrics factor 2")
    m2 = depth_metrics(DepthMap(one(1.2)), DepthMap(one(1.0)))
    ck(m2.delta1 == 1 and m2.delta3 == 1, "metrics 1.2 ratio")
    ck(np.isclose(scale_correction(DepthMap(np.array([[1., 2.], [3., 4.]])),
                                   DepthMap(np.array([[2., 2.], [2., 10.]]))), 1.25),
       "median scale 1.25")
    p = default_p_grid()
    ck(np.isclose(auce(CalibrationCurve(p, np.ones_like(p)))[0], -0.5)
       and np.isclose(auce(CalibrationCurve(p, np.zeros_like(p)))[0], 0.5),
       "auce endpoints")

    failed = [label for okc, label in checks if not okc]
    _report(not failed, "criterion 7 example battery",
            f"{len(checks)} worked examples, failed: {failed or 'none'}")


# ---------------------------------------------------------------------------
# criterion 8: bit-identical CLI re-runs from manifests at any --jobs


def test_criterion_8_cli_determinism(tmp_path):
    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        assert rc == 0, argv
        return rc

    ds1 = tmp_path / "ds1"
    run("synth", "--out", ds1, "--seed", 13, "--frames", 5, "--width", 24,
        "--height", 24, "--sway-mm", 1.0)
    run("train", "--data", ds1, "--out", tmp_path / "run1", "--regime",
        "supervised-gt", "--members", 3, "--seed", 2, "--steps", 60,
        "--grid", 6, "--jobs", 1)
    run("fuse", "--run", tmp_path / "run1", "--out", tmp_path / "fused1")
    run("eval", "--pred", tmp_path / "fused1", "--data", ds1, "--out",
        tmp_path / "eval1" / "metrics.csv")
    run("calib", "--pred", tmp_path / "fused1", "--data", ds1, "--out",
        tmp_path / "calib1" / "curve.csv")

    # replay every stage from its manifest into fresh directories, with a
    # different process count for training
    ds2 = tmp_path / "ds2"
    run("synth", "--config", ds1 / "manifest.json", "--out", ds2)
    run("train", "--config", tmp_path / "run1" / "manifest.json", "--data", ds2,
        "--out", tmp_path / "run2", "--jobs", 3)
    run("fuse", "--run", tmp_path / "run2", "--out", tmp_path / "fused2")
    run("eval", "--config", tmp_path / "eval1" / "manifest.json",
        "--pred", tmp_path / "fused2", "--data", ds2,
        "--out", tmp_path / "eval2" / "metrics.csv")
    run("calib", "--config", tmp_path / "calib1" / "manifest.json",
        "--pred", tmp_path / "fused2", "--data", ds2,
        "--out", tmp_path / "calib2" / "curve.csv")

    mismatches = []
    for name in sorted(p.name for p in ds1.iterdir()):
        if name.endswith((".ppm", ".pfm")) or name == "intrinsics.json":
            if (ds1 / name).read_bytes() != (ds2 / name).read_bytes():
                mismatches.append(f"ds/{name}")
    for name in ("member_2.json", "member_3.json", "member_4.json",
                 "loss_2.csv", "loss_3.csv", "loss_4.csv"):
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes():
            mismatches.append(f"run/{name}")
    for name in ("depth_mean.pfm", "var_aleatoric.pfm", "var_epistemic.pfm",
                 "var_total.pfm"):
        if (tmp_path / "fused1" / name).read_bytes() != (tmp_path / "fused2" / name).read_bytes():
            mismatches.append(f"fused/{name}")
    if (tmp_path / "eval1" / "metrics.csv").read_bytes() != (tmp_path / "eval2" / "metrics.csv").read_bytes():
        mismatches.append("metrics.csv")
    if (tmp_path / "calib1" / "curve.csv").read_bytes() != (tmp_path / "calib2" / "curve.csv").read_bytes():
        mismatches.append("curve.csv")
    _report(not mismatches, "criterion 8 CLI determinism",
            f"manifest replay at different --jobs, mismatches: {mismatches or 'none'}")
