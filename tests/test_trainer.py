import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import _reference
import numpy as np
import pytest
from _audit import KinkStraddled, audit_random_fields, finite_diff_audit

from scopedepth import predictor, trainer
from scopedepth.cli import Regime
from scopedepth.geometry import CameraIntrinsics, Pose, relative_pose, rotation_xyz
from scopedepth.imagery import DepthMap, Image, Mask, UncMap, write_csv
from scopedepth.losses import LossConfig
from scopedepth.predictor import DepthField, forward_arrays, init_random
from scopedepth.synthcolon import (
    SceneParams,
    generate_trajectory,
    render_view,
    render_views,
    simulate_sfm_labels,
)
from scopedepth.trainer import (
    LabeledFrame,
    NumericFailure,
    TrainConfig,
    TrainData,
    Triplet,
    train_ensemble,
    train_member,
)

K16 = CameraIntrinsics(16, 16, 7.5, 7.5)


@pytest.fixture(scope="module")
def sup_data():
    rng = np.random.default_rng(0)
    depth = DepthMap(rng.uniform(15, 40, (12, 12)).astype(np.float32))
    return TrainData(frames=(LabeledFrame(depth=depth),))


@pytest.fixture(scope="module")
def student_data():
    rng = np.random.default_rng(1)
    return TrainData(
        frames=(
            LabeledFrame(
                depth=DepthMap(rng.uniform(15, 40, (12, 12)).astype(np.float32)),
                sigma=UncMap(
                    rng.uniform(0.4, 2.0, (12, 12)).astype(np.float32), "std"
                ),
            ),
        )
    )


@pytest.fixture(scope="module")
def plain_student_data(student_data):
    # the same teacher depth without its sigma
    return TrainData(frames=(LabeledFrame(depth=student_data.frames[0].depth),))


@pytest.fixture(scope="module")
def selfsup_data():
    params = SceneParams(seed=4)
    traj = generate_trajectory(params, 4, 0.8)
    views = [render_view(params, p, K16, 16, 16) for p in traj]
    rels = tuple(relative_pose(traj[1], traj[s]) for s in (0, 3))
    trip = Triplet(
        target=views[1][0],
        sources=(views[0][0], views[3][0]),
        rel_poses=rels,
    )
    return TrainData(triplets=(trip,), K=K16)


def small_cfg(**kw):
    base = dict(steps=60, learning_rate=0.5, grid=4,
                depth_init_mm=25.0, jitter=0.05,
                loss=LossConfig(weight_decay=1e-6, lambda_u=0.0), seed=3)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainMember:
    def test_bitwise_determinism(self, sup_data):
        f1, r1 = train_member(sup_data, small_cfg())
        f2, r2 = train_member(sup_data, small_cfg())
        assert f1.log_depth.tobytes() == f2.log_depth.tobytes()
        assert f1.log_sigma.tobytes() == f2.log_sigma.tobytes()
        assert np.array_equal(r1.losses, r2.losses)

    def test_supervised_loss_decreases(self, sup_data):
        _, report = train_member(sup_data, small_cfg(steps=300))
        assert report.losses[-1] < report.losses[0]

    def test_constant_target_from_matching_init_converges(self):
        # near the optimum the L1 gradient has constant magnitude, so the
        # fixed-step iteration orbits at a radius set by the learning rate;
        # a small rate keeps the orbit well inside the 1e-3 target
        depth = DepthMap(np.full((12, 12), 25.0, dtype=np.float32))
        data = TrainData(frames=(LabeledFrame(depth=depth),))
        cfg = small_cfg(steps=600, jitter=0.01, learning_rate=5e-5,
                        loss=LossConfig(weight_decay=0.0))
        field, report = train_member(data, cfg)
        # jitter 0.01 keeps the initial depth within 1% of the labels, so
        # the first loss is dominated by log(sigma_init) = 0
        assert report.losses[0] == pytest.approx(0.0, abs=0.3)
        d, _ = forward_arrays(field.grids, 12, 12)
        assert np.abs(d / 25.0 - 1).mean() < 1e-3

    def test_uncertain_student_with_zero_sigma_matches_plain_bitwise(self):
        rng = np.random.default_rng(2)
        d_t = DepthMap(rng.uniform(15, 40, (10, 10)).astype(np.float32))
        zero = UncMap(np.zeros((10, 10), dtype=np.float32), "std")
        plain = TrainData(frames=(LabeledFrame(depth=d_t),))
        uncert = TrainData(frames=(LabeledFrame(depth=d_t, sigma=zero),))
        f1, r1 = train_member(plain, small_cfg())
        f2, r2 = train_member(uncert, small_cfg())
        assert f1.log_depth.tobytes() == f2.log_depth.tobytes()
        assert f1.log_sigma.tobytes() == f2.log_sigma.tobytes()
        assert np.array_equal(r1.losses, r2.losses)

    def test_identity_pose_selfsup_leaves_depth_grid(self):
        params = SceneParams(seed=4)
        traj = generate_trajectory(params, 3, 0.8)
        img, _, _ = render_view(params, traj[1], K16, 16, 16)
        from scopedepth.geometry import Pose

        trip = Triplet(target=img, sources=(img, img),
                       rel_poses=(Pose(np.eye(3), np.zeros(3)), Pose(np.eye(3), np.zeros(3))))
        data = TrainData(triplets=(trip,), K=K16)
        cfg = small_cfg(loss=LossConfig(weight_decay=0.0, lambda_u=0.0), steps=40)
        field, _ = train_member(data, cfg)
        init = init_random(cfg.seed, 4, 4, cfg.depth_init_mm, cfg.jitter)
        assert np.array_equal(field.log_depth, init.log_depth)
        assert not np.array_equal(field.log_sigma, init.log_sigma)

    def test_regime_bundle_validation(self, monkeypatch, student_data, selfsup_data):
        monkeypatch.setattr(trainer, "_objective",
                            lambda *args, **kwargs: pytest.fail("took a step"))
        for empty in (TrainData(), TrainData(triplets=selfsup_data.triplets)):
            with pytest.raises(ValueError, match="labeled frames, or triplets and intrinsics"):
                train_member(empty, small_cfg())
        frame = student_data.frames[0]
        variance = TrainData(frames=(replace(frame, sigma=UncMap(frame.sigma.data ** 2, "variance")),))
        with pytest.raises(ValueError, match="std-kind"):
            train_member(variance, small_cfg())
        # a label sigma or mask of another size than its depth map, and a
        # source of another size than its target
        small = np.ones((3, 4), dtype=np.float32)
        trip = selfsup_data.triplets[0]
        small_source = replace(trip, sources=(trip.target, Image(np.zeros((3, 4, 3)))))
        for bad in (TrainData(frames=(replace(frame, sigma=UncMap(small, "std")),)),
                    TrainData(frames=(replace(frame, mask=Mask(small > 0)),)),
                    TrainData(triplets=(small_source,), K=selfsup_data.K)):
            with pytest.raises(ValueError, match="raster dimensions disagree"):
                train_member(bad, small_cfg())

    def test_label_sigma_on_some_frames_rejected_before_any_step(self, monkeypatch,
                                                                  student_data):
        # the step reads a label variance for every frame or for none
        monkeypatch.setattr(trainer, "_objective",
                            lambda *args, **kwargs: pytest.fail("took a step"))
        frame = student_data.frames[0]
        for frames in ((frame, replace(frame, sigma=None)), (replace(frame, sigma=None), frame)):
            with pytest.raises(ValueError, match="label sigma on some frames but not all"):
                train_member(TrainData(frames=frames), small_cfg())

    def test_frames_and_triplets_together_rejected_before_any_step(
            self, monkeypatch, sup_data, selfsup_data):
        # the step reads one kind of sample, so a bundle of both kinds would
        # silently drop one
        monkeypatch.setattr(trainer, "_objective",
                            lambda *args, **kwargs: pytest.fail("took a step"))
        both = TrainData(frames=sup_data.frames, triplets=selfsup_data.triplets,
                         K=selfsup_data.K)
        with pytest.raises(ValueError, match="labeled frames or triplets, not both"):
            train_member(both, small_cfg())
        assert "_constants" not in vars(both)

    def test_teacher_maps_not_mutated(self, student_data):
        frame = student_data.frames[0]
        before = frame.depth.data.tobytes(), frame.sigma.data.tobytes()
        train_member(student_data, small_cfg(steps=30))
        assert (frame.depth.data.tobytes(), frame.sigma.data.tobytes()) == before

    def test_smoothed_trajectory_non_increasing(self, sup_data):
        # allow the fixed-step limit-cycle wobble at convergence: increases
        # of the 50-step moving average stay within 1e-4 of the loss scale
        _, report = train_member(sup_data, small_cfg(steps=900, learning_rate=0.3))
        c = np.concatenate([[0.0], np.cumsum(report.losses)])
        sm = (c[50:] - c[:-50]) / 50
        slack = 1e-4 * (1.0 + np.abs(sm).max())
        assert (np.diff(sm) <= slack).all()

    def test_lower_learning_rate_never_worse(self, sup_data, student_data,
                                             plain_student_data, selfsup_data):
        # coarse robustness on reduced-size scenes: with a step budget that
        # lets both rates converge, a 10x smaller rate ends at a loss no
        # higher than the base rate's (its limit cycle is tighter)
        cases = [
            ("sup", sup_data, 1200, LossConfig(weight_decay=1e-6)),
            ("plain", plain_student_data, 1200, LossConfig(weight_decay=1e-6)),
            ("sigma", student_data, 1200, LossConfig(weight_decay=1e-6)),
            # photometric-scale floor 0.05 so the slow log tail of the
            # uncertainty terms plateaus inside the step budget at both rates
            ("triplets", selfsup_data, 4000,
             LossConfig(weight_decay=1e-6, lambda_u=0.05, sigma_min=0.05)),
        ]
        for name, data, steps, lc in cases:
            cfg_hi = small_cfg(steps=steps, learning_rate=1.0, loss=lc)
            cfg_lo = small_cfg(steps=steps, learning_rate=0.1, loss=lc)
            _, hi = train_member(data, cfg_hi)
            _, lo = train_member(data, cfg_lo)
            assert lo.losses[-1] <= hi.losses[-1] + 1e-9, name

    def test_report_csv(self, sup_data, tmp_path):
        _, report = train_member(sup_data, small_cfg(steps=5))
        write_csv([("step", "loss"), *enumerate(report.losses.tolist())],
                  tmp_path / "loss.csv")
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in rows] == list(range(5))
        parsed = np.array([float(v) for _, v in rows])
        assert parsed.tobytes() == report.losses.tobytes()


class TestTrainEnsemble:
    def test_members_distinct_and_seed_ordered(self, sup_data):
        results = train_ensemble(sup_data, small_cfg(seed=10), 3)
        seeds = [f.seed for f, _ in results]
        assert seeds == [10, 11, 12]
        assert results[0][0].log_depth.tobytes() != results[1][0].log_depth.tobytes()

    def test_single_member_equals_train_member(self, sup_data):
        cfg = small_cfg(seed=7)
        (field, _), = train_ensemble(sup_data, cfg, 1)
        ref, _ = train_member(sup_data, cfg)
        assert field.log_depth.tobytes() == ref.log_depth.tobytes()

    def test_config_seed_seeds_the_members(self, sup_data):
        cfg = small_cfg(seed=20, steps=20)
        results = train_ensemble(sup_data, cfg, 2)
        assert [f.seed for f, _ in results] == [20, 21]
        for i, (field, report) in enumerate(results):
            ref, ref_report = train_member(sup_data, replace(cfg, seed=20 + i))
            assert field.grids.tobytes() == ref.grids.tobytes()
            assert report.losses.tobytes() == ref_report.losses.tobytes()


class TestAudit:
    def test_supervised_gradient_audit(self, sup_data):
        errs = audit_random_fields(sup_data, draws=5, loss_cfg=LossConfig(weight_decay=1e-4))
        assert max(errs) < 1e-4

    def test_student_gradient_audits(self, student_data, plain_student_data):
        for data in (plain_student_data, student_data):
            errs = audit_random_fields(data, draws=5, loss_cfg=LossConfig(weight_decay=1e-4))
            assert max(errs) < 1e-4

    def test_selfsup_gradient_audit(self, selfsup_data):
        errs = audit_random_fields(selfsup_data, draws=5,
                                   loss_cfg=LossConfig(weight_decay=1e-4, lambda_u=0.05))
        assert max(errs) < 1e-3

    def test_audit_keeps_heap_mapped_in_fresh_process(self):
        # a fresh process that audits without training first must still
        # stop glibc from trimming the heap between objective evaluations
        code = textwrap.dedent("""
            import numpy as np
            from scopedepth import heap
            from scopedepth.imagery import DepthMap
            from scopedepth.predictor import init_random
            from _audit import finite_diff_audit
            from scopedepth.trainer import LabeledFrame, TrainData
            labels = DepthMap(np.full((6, 6), 90.0, dtype=np.float32))
            data = TrainData(frames=(LabeledFrame(depth=labels),))
            finite_diff_audit(data, init_random(0, 2, 2))
            print(heap.keep_heap_mapped.cache_info().currsize)
        """)
        src = str(Path(trainer.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, str(Path(__file__).parent)))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "1"

    def test_rejects_large_grids(self, sup_data):
        big = init_random(0, 9, 9)
        with pytest.raises(ValueError):
            finite_diff_audit(sup_data, big)

    def test_kink_detection_on_exact_tie(self):
        # a label exactly equal to the constant prediction sits on the L1
        # kink: the probe must report straddling instead of a bad number
        depth = DepthMap(np.full((8, 8), 25.0, dtype=np.float32))
        data = TrainData(frames=(LabeledFrame(depth=depth),))
        field = init_random(0, 4, 4, 25.0, 0.0)
        with pytest.raises(KinkStraddled):
            finite_diff_audit(data, field)

    def test_kink_detection_in_selfsup_switches(self, selfsup_data):
        # a coarse step on the first depth node flips smoothness signs, and
        # downwards also warped L1 signs and the argmin over sources: switches
        # that only the self-supervised fingerprint records
        field = init_random(100, 4, 4, 25.0, 0.25)
        with pytest.raises(KinkStraddled, match="parameter 0 probe crossed a switch"):
            finite_diff_audit(selfsup_data, field, 1e-1,
                              LossConfig(lambda_u=0.05, weight_decay=0.0))

    def test_zero_learning_rate_leaves_field(self, sup_data):
        # harness sanity: gradients are computed but never applied
        cfg = small_cfg(steps=5, learning_rate=1e-300)
        field, _ = train_member(sup_data, cfg)
        init = init_random(cfg.seed, 4, 4, cfg.depth_init_mm, cfg.jitter)
        assert np.allclose(field.log_depth, init.log_depth, atol=1e-12)


def _triplet_bundle(K, w, h, gray=False, far_pose=False):
    """A rendered triplet (target frame 1, sources 0 and 2).  ``gray`` keeps
    one channel; ``far_pose`` replaces the second source's pose by one that
    turns and shifts the camera so most target pixels warp out of view."""
    params = SceneParams(seed=4)
    traj = generate_trajectory(params, 3, 1.0, sway_mm=2.0)
    imgs = [img for img, _, _ in render_views(params, traj, K, w, h)]
    if gray:
        imgs = [Image(img.gray()) for img in imgs]
    rels = [relative_pose(traj[1], traj[s]) for s in (0, 2)]
    if far_pose:
        rels[1] = Pose(rotation_xyz(0.2, 0.7, 0.0), [8.0, 3.0, 1.0])
    return TrainData(
        triplets=(Triplet(target=imgs[1], sources=(imgs[0], imgs[2]),
                          rel_poses=tuple(rels)),),
        K=K,
    )


def _reference_step(data_term):
    """A stand-in for ``trainer._objective`` built on a reference data
    term, which leaves out the weight prior: the prior is added per grid,
    as it was before the grids were stacked."""
    def objective(data, grids, loss_cfg, w, h):
        loss, g_ld, g_ls = data_term(grids[0], grids[1], data, w, h, loss_cfg)
        p_loss, p_ld, p_ls = _reference.prior_pair(grids[0], grids[1], loss_cfg)
        return loss + p_loss, np.stack([g_ld + p_ld, g_ls + p_ls])
    return objective


REFERENCE_CASES = {
    "rgb-64": dict(K=CameraIntrinsics(48, 48, 31.5, 31.5), w=64, h=64),
    "rgb-37x23": dict(K=CameraIntrinsics(30, 30, 18, 11), w=37, h=23),
    "gray-32": dict(K=CameraIntrinsics(24, 24, 15.5, 15.5), w=32, h=32, gray=True),
    "out-of-view-32": dict(K=CameraIntrinsics(24, 24, 15.5, 15.5), w=32, h=32,
                           far_pose=True),
}


class TestObjectiveMatchesReference:
    """The channel-first objective with per-run constants reproduces the
    (h, w, c) objective it replaced, bit for bit."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_loss_and_gradients(self, case):
        data = _triplet_bundle(**REFERENCE_CASES[case])
        w, h = data.resolution()
        if case == "out-of-view-32":
            pose = data.triplets[0].rel_poses[1]
            xs, ys, front, _, _ = _reference.warp_coordinates(np.full((h, w), 25.0), data.K, pose)
            seen = front & (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
            assert 0 < seen.mean() < 0.25
        for seed, grid, lambda_u in ((0, 4, 0.05), (1, 8, 0.05), (2, 5, 0.0), (3, 3, 0.5)):
            field = init_random(seed, grid, grid, 25.0, 0.25)
            lc = LossConfig(lambda_u=lambda_u, weight_decay=0.0)
            loss, grad = trainer._objective(data, field.grids, lc, w, h)
            ref_loss, ref_ld, ref_ls = _reference._selfsup_objective(
                field.log_depth, field.log_sigma, data, w, h, lc)
            assert loss == ref_loss
            assert np.array_equal(grad[0], ref_ld)
            assert np.array_equal(grad[1], ref_ls)

    def test_two_triplets_take_half_shares(self):
        # a bundle of two triplets (gray and colour, one mostly out of view)
        # divides each triplet's share by two, where a lone one skips that
        gray, far = (_triplet_bundle(**REFERENCE_CASES[c]) for c in ("gray-32", "out-of-view-32"))
        data = TrainData(triplets=gray.triplets + far.triplets, K=gray.K)
        for seed, lambda_u in ((0, 0.05), (1, 0.0)):
            field = init_random(seed, 4, 4, 25.0, 0.25)
            lc = LossConfig(lambda_u=lambda_u, weight_decay=0.0)
            loss, grad = trainer._objective(data, field.grids, lc, 32, 32)
            ref_loss, ref_ld, ref_ls = _reference._selfsup_objective(
                field.log_depth, field.log_sigma, data, 32, 32, lc)
            assert loss == ref_loss
            assert grad[0].tobytes() == ref_ld.tobytes()
            assert grad[1].tobytes() == ref_ls.tobytes()

    def test_training_run_matches_reference(self, monkeypatch):
        data = _triplet_bundle(**REFERENCE_CASES["rgb-64"])
        cfg = small_cfg(steps=20, grid=6,
                        loss=LossConfig(weight_decay=1e-6, lambda_u=0.05))
        field, report = train_member(data, cfg)
        monkeypatch.setattr(trainer, "_objective",
                            _reference_step(_reference._selfsup_objective))
        ref_field, ref_report = train_member(data, cfg)
        assert field.log_depth.tobytes() == ref_field.log_depth.tobytes()
        assert field.log_sigma.tobytes() == ref_field.log_sigma.tobytes()
        assert report.losses.tobytes() == ref_report.losses.tobytes()

    def test_constants_built_once_per_bundle(self, monkeypatch, selfsup_data):
        builds = []
        build = trainer._triplet_constants

        def counted(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(trainer, "_triplet_constants", counted)
        data = TrainData(triplets=selfsup_data.triplets, K=selfsup_data.K)
        train_member(data, small_cfg(steps=10))
        assert len(builds) == 1
        train_member(data, small_cfg(steps=10, seed=4))
        assert len(builds) == 1
        # a new bundle builds its own
        fresh = TrainData(triplets=selfsup_data.triplets, K=selfsup_data.K)
        train_member(fresh, small_cfg(steps=10))
        assert len(builds) == 2

    def test_pickled_bundle_trains_to_same_bytes(self, selfsup_data):
        # a bundle pickled before or after its constants exist (for another
        # process) trains to the same bytes as the original
        data = TrainData(triplets=selfsup_data.triplets, K=selfsup_data.K)
        cfg = small_cfg(steps=15, loss=LossConfig(weight_decay=1e-6, lambda_u=0.05))
        before = pickle.dumps(data)
        field, report = train_member(data, cfg)
        after = pickle.dumps(data)
        for blob in (before, after):
            f2, r2 = train_member(pickle.loads(blob), cfg)
            assert f2.log_depth.tobytes() == field.log_depth.tobytes()
            assert f2.log_sigma.tobytes() == field.log_sigma.tobytes()
            assert r2.losses.tobytes() == report.losses.tobytes()


LABEL_REGIMES = [Regime.SUPERVISED_GT, Regime.SUPERVISED_SFM, Regime.PLAIN_STUDENT,
                 Regime.UNCERTAIN_STUDENT]
DIVERGING_LR = 30.0


def _label_bundles() -> dict:
    """Two 24x24 frames for each label regime of the CLI, so the step sums
    over frames; the trainer sees only the bundle, so each regime gets a
    bundle of its own kind: one unmasked frame twice, a second frame with
    SfM holes, the same second frame dense (as a teacher's depth is), and
    the SfM pair with a label sigma."""
    rng = np.random.default_rng(7)
    depth = DepthMap(rng.uniform(15, 40, (24, 24)).astype(np.float32))
    d_sfm, holes = simulate_sfm_labels(depth, seed=8, hole_fraction=0.2, noise_rel=0.05)
    sigma = UncMap(rng.uniform(0.4, 2.0, (24, 24)).astype(np.float32), "std")
    plain = (LabeledFrame(depth=depth), LabeledFrame(depth=d_sfm, mask=holes))
    return {
        Regime.SUPERVISED_GT: TrainData(frames=plain[:1] * 2),
        Regime.SUPERVISED_SFM: TrainData(frames=plain),
        Regime.PLAIN_STUDENT: TrainData(frames=(plain[0], LabeledFrame(depth=d_sfm))),
        Regime.UNCERTAIN_STUDENT: TrainData(
            frames=tuple(replace(f, sigma=sigma) for f in plain)),
    }


def _poisoned(frame: LabeledFrame, value: float) -> LabeledFrame:
    """``frame`` with ``value`` as the label of every masked pixel.
    DepthMap refuses non-finite entries; the step must not depend on it."""
    data = np.array(frame.depth.data)
    data[~frame.mask.data] = value
    depth = DepthMap(frame.depth.data)
    object.__setattr__(depth, "data", data)
    return replace(frame, depth=depth)


class TestLabelStepMatchesReference:
    """The label step, with per-run weights and label variance and no
    zero-filled sums, reproduces the step it replaced (``np.where`` mask,
    ``np.hypot`` scale): bit for bit without a label std, within a few
    ulps with one."""

    @pytest.mark.parametrize("regime", LABEL_REGIMES[:3])
    def test_training_run_bitwise(self, regime, monkeypatch):
        data = _label_bundles()[regime]
        cfg = small_cfg(steps=30)
        field, report = train_member(data, cfg)
        monkeypatch.setattr(trainer, "_objective",
                            _reference_step(_reference._label_objective))
        ref_field, ref_report = train_member(data, cfg)
        assert field.log_depth.tobytes() == ref_field.log_depth.tobytes()
        assert field.log_sigma.tobytes() == ref_field.log_sigma.tobytes()
        assert report.losses.tobytes() == ref_report.losses.tobytes()

    def test_uncertain_student_step_within_ulps(self):
        data = _label_bundles()[Regime.UNCERTAIN_STUDENT]
        lc = LossConfig(weight_decay=1e-6)
        for seed in range(5):
            grids = init_random(seed, 4, 4, 25.0, 0.25).grids
            loss, grad = trainer._objective(data, grids, lc, 24, 24)
            ref_loss, ref_grad = _reference_step(_reference._label_objective)(
                data, grids, lc, 24, 24)
            assert abs(loss - ref_loss) <= 4 * np.spacing(ref_loss)
            for got, want in ((grad[0], ref_grad[0]), (grad[1], ref_grad[1])):
                assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max())

    @pytest.mark.parametrize("regime", [Regime.SUPERVISED_SFM, Regime.UNCERTAIN_STUDENT])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_masked_labels_leave_the_step(self, regime, bad):
        data = _label_bundles()[regime]
        poisoned = TrainData(frames=(data.frames[0], _poisoned(data.frames[1], bad)))
        lc = LossConfig(weight_decay=1e-6)
        for seed in range(3):
            grids = init_random(seed, 4, 4, 25.0, 0.25).grids
            a_loss, a_grad = trainer._objective(data, grids, lc, 24, 24)
            b_loss, b_grad = trainer._objective(poisoned, grids, lc, 24, 24)
            assert a_loss == b_loss
            assert a_grad[0].tobytes() == b_grad[0].tobytes()
            assert a_grad[1].tobytes() == b_grad[1].tobytes()

    @pytest.mark.parametrize("regime", LABEL_REGIMES)
    def test_diverging_run_fails_at_reference_step(self, regime, monkeypatch):
        data = _label_bundles()[regime]
        cfg = small_cfg(learning_rate=DIVERGING_LR)
        with pytest.raises(NumericFailure) as new:
            train_member(data, cfg)
        monkeypatch.setattr(trainer, "_objective",
                            _reference_step(_reference._label_objective))
        with pytest.raises(NumericFailure) as ref:
            train_member(data, cfg)
        # and the loop that stepped and checked the two grids apart
        with pytest.raises(NumericFailure) as per_grid:
            _reference.train_member(data, cfg)
        assert new.value.step == ref.value.step == per_grid.value.step > 0


class TestLabelConstants:
    """Label frames keep their float64 label, label variance and pixel
    weights for the lifetime of the bundle, as triplets keep theirs."""

    def test_constants_built_once_per_bundle(self, monkeypatch):
        builds = []
        build = trainer._frame_constants

        def counted(frame):
            builds.append(frame)
            return build(frame)

        monkeypatch.setattr(trainer, "_frame_constants", counted)
        data = _label_bundles()[Regime.UNCERTAIN_STUDENT]
        train_member(data, small_cfg(steps=10))
        assert builds == list(data.frames)
        train_member(data, small_cfg(steps=10, seed=4))
        assert len(builds) == 2
        # a new bundle builds its own
        fresh = TrainData(frames=data.frames)
        train_member(fresh, small_cfg(steps=10))
        assert len(builds) == 4

    def test_constants_of_a_frame(self):
        # the label, zero where masked; the teacher's variance; the 0/1
        # weights of the valid pixels (None when unmasked) and their count
        # (all of them unmasked)
        data = _label_bundles()[Regime.UNCERTAIN_STUDENT]
        for frame, (label, var_label, weights, count) in zip(data.frames, data._constants):
            valid = np.full((24, 24), True) if frame.mask is None else frame.mask.data
            assert label.dtype == var_label.dtype == np.float64
            if frame.mask is None:
                assert weights is None
            else:
                assert weights.dtype == np.float64 and np.array_equal(weights, valid)
            assert np.array_equal(label, np.where(valid, frame.depth.data, 0.0))
            assert np.array_equal(var_label, frame.sigma.data.astype(np.float64) ** 2)
            assert count == valid.sum()
        assert data._constants[0][3] == 24 * 24 > data._constants[1][3]

    def test_pickled_bundle_trains_to_same_bytes(self):
        # a bundle pickled before or after its constants exist (for another
        # process) trains to the same bytes as the original
        data = _label_bundles()[Regime.UNCERTAIN_STUDENT]
        cfg = small_cfg(steps=15)
        before = pickle.dumps(data)
        field, report = train_member(data, cfg)
        assert "_constants" in vars(data)
        after = pickle.dumps(data)
        for blob in (before, after):
            f2, r2 = train_member(pickle.loads(blob), cfg)
            assert f2.log_depth.tobytes() == field.log_depth.tobytes()
            assert f2.log_sigma.tobytes() == field.log_sigma.tobytes()
            assert r2.losses.tobytes() == report.losses.tobytes()


class TestStackedParameters:
    """A member's two grids are one (2, g, g) stack: each step upsamples and
    back-projects both in one call each, and training reproduces the loop
    that stepped the two grids apart, bit for bit."""

    @pytest.mark.parametrize("bundle", ["sup_data", "selfsup_data"])
    def test_one_upsample_and_one_adjoint_per_step(self, bundle, request, monkeypatch):
        data = request.getfixturevalue(bundle)
        calls = {}
        for name in ("upsample_bilinear", "upsample_bilinear_adjoint"):
            def counted(*args, _name=name, _fn=getattr(predictor, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(predictor, name, counted)
        train_member(data, small_cfg(steps=7))
        assert calls == {"upsample_bilinear": 7, "upsample_bilinear_adjoint": 7}

    def test_field_is_one_read_only_stack(self):
        field = init_random(3, 5, 4, 25.0, 0.1)
        assert field.grids.shape == (2, 4, 5) and not field.grids.flags.writeable
        assert np.shares_memory(field.log_depth, field.grids)
        assert np.shares_memory(field.log_sigma, field.grids)
        theta = np.arange(40.0)
        again = DepthField(theta.reshape(2, 4, 5), field.seed)
        assert again.grids.tobytes() == theta.tobytes()
        theta[0] = -1.0  # the field keeps its own copy
        assert again.log_depth[0, 0] == 0.0
        with pytest.raises(ValueError, match="stack"):
            DepthField(np.zeros((3, 4, 5)), 0)

    def test_quick_start_ensemble_matches_per_grid_loop(self):
        # the README quick start's shape: five supervised-gt members of 200
        # steps on a grid of 16, labelled by one 64x64 frame, under the
        # dataclass (and CLI) defaults
        params = SceneParams(seed=21)
        pose = generate_trajectory(params, 12, 1.0, sway_mm=2.5)[6]
        _, depth, _ = render_view(params, pose, CameraIntrinsics(48, 48, 31.5, 31.5), 64, 64)
        data = TrainData(frames=(LabeledFrame(depth=depth),))
        cfg = TrainConfig(steps=200, seed=1)
        for field, report in train_ensemble(data, cfg, 5):
            ld, ls, losses = _reference.train_member(data, replace(cfg, seed=field.seed))
            assert field.log_depth.tobytes() == ld.tobytes()
            assert field.log_sigma.tobytes() == ls.tobytes()
            assert report.losses.tobytes() == losses.tobytes()

    @pytest.mark.parametrize("regime, case", [
        *((r, c) for r in LABEL_REGIMES for c in ("two-frame", "lone-frame")),
        (Regime.SELF_SUPERVISED, "selfsup-16"), (Regime.SELF_SUPERVISED, "selfsup-64"),
    ], ids=lambda v: getattr(v, "value", v))
    def test_short_runs_match_per_grid_loop(self, regime, case, sup_data, student_data,
                                            plain_student_data, selfsup_data):
        if case == "two-frame":
            data, cfg = _label_bundles()[regime], small_cfg(steps=30)
        elif case == "lone-frame":
            d_sfm, holes = simulate_sfm_labels(sup_data.frames[0].depth, seed=8,
                                               hole_fraction=0.2, noise_rel=0.05)
            data = {Regime.SUPERVISED_GT: sup_data,
                    Regime.SUPERVISED_SFM: TrainData(
                        frames=(LabeledFrame(depth=d_sfm, mask=holes),)),
                    Regime.PLAIN_STUDENT: plain_student_data,
                    Regime.UNCERTAIN_STUDENT: student_data}[regime]
            cfg = small_cfg(steps=30)
        else:
            data = (selfsup_data if case == "selfsup-16"
                    else _triplet_bundle(**REFERENCE_CASES["rgb-64"]))
            cfg = small_cfg(steps=15, grid=6,
                            loss=LossConfig(weight_decay=1e-6, lambda_u=0.05))
        field, report = train_member(data, cfg)
        ld, ls, losses = _reference.train_member(data, cfg)
        assert field.log_depth.tobytes() == ld.tobytes()
        assert field.log_sigma.tobytes() == ls.tobytes()
        assert report.losses.tobytes() == losses.tobytes()
