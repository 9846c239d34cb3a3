import re
import tracemalloc
import weakref

import numpy as np
import pytest
from _reference import wall_field, wall_shade

from scopedepth import synthcolon
from scopedepth.geometry import CameraIntrinsics, Pose, relative_pose, synthesize_warped_image
from scopedepth.imagery import DepthMap, write_ppm
from scopedepth.metrics import scale_correction
from scopedepth.rng import hash_unit_np
from scopedepth.synthcolon import (
    LightModel,
    SceneParams,
    generate_trajectory,
    render_view,
    render_views,
    simulate_sfm_labels,
    surface_field,
    write_dataset,
)

K64 = CameraIntrinsics(48, 48, 31.5, 31.5)


class TestRender:
    def test_straight_cylinder_analytic_depths(self):
        # camera on the axis of an unridged straight tube: off-axis rays hit
        # the wall at z-depth r / tan(theta), axial rays reach the far cap
        params = SceneParams(radius_mm=10, curve_amp_mm=0, ridge_amp_mm=0,
                             far_cap_mm=60, seed=3)
        K = CameraIntrinsics(32, 32, 31.5, 31.5)
        img, depth, hit = render_view(params, Pose.identity(), K, 64, 64)
        for (px, py) in [(5, 31), (60, 50), (0, 0), (20, 10)]:
            rx = (px - 31.5) / 32.0
            ry = (py - 31.5) / 32.0
            expected = 10.0 / np.hypot(rx, ry)
            if expected < 60:
                assert hit.data[py, px]
                assert depth.data[py, px] == pytest.approx(expected, abs=2e-3)

    def test_axial_ray_reaches_far_cap(self):
        params = SceneParams(radius_mm=10, curve_amp_mm=0, ridge_amp_mm=0,
                             far_cap_mm=60, seed=3)
        K = CameraIntrinsics(32, 32, 31.5, 31.5)
        img, depth, hit = render_view(params, Pose.identity(), K, 63, 63)
        assert not hit.data[31, 31]
        assert depth.data[31, 31] == pytest.approx(60.0, rel=1e-5)

    def test_hit_depths_satisfy_surface_equation(self):
        params = SceneParams(seed=11)
        traj = generate_trajectory(params, 3, 1.0)
        img, depth, hit = render_view(params, traj[0], K64, 64, 64)
        h = w = 64
        gx, gy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        rays = np.stack([(gx - K64.cx) / K64.fx, (gy - K64.cy) / K64.fy,
                         np.ones_like(gx)], -1)
        dirs = rays / np.linalg.norm(rays, axis=-1, keepdims=True)
        t = depth.data.astype(np.float64) / dirs[..., 2]
        pts = traj[0].translation + (dirs @ traj[0].rotation.T) * t[..., None]
        f = surface_field(params, pts.reshape(-1, 3)).reshape(h, w)
        assert np.abs(f[hit.data]).max() <= 1e-3

    def test_bitwise_deterministic(self):
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[1]
        a = render_view(params, pose, K64, 32, 32)
        b = render_view(params, pose, K64, 32, 32)
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()
        assert a[2].data.tobytes() == b[2].data.tobytes()

    def test_light_doubling_scales_unclamped_pixels(self):
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        lo, _, _ = render_view(params, pose, K64, 32, 32, LightModel(intensity=400))
        hi, _, _ = render_view(params, pose, K64, 32, 32, LightModel(intensity=800))
        unclamped = hi.data < 1.0
        assert unclamped.any()
        np.testing.assert_array_equal(hi.data[unclamped], (2 * lo.data)[unclamped])

    def test_specular_toggle_adds_highlights(self):
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        base, _, _ = render_view(params, pose, K64, 48, 48,
                                 LightModel(specular=False))
        spec, _, _ = render_view(params, pose, K64, 48, 48,
                                 LightModel(specular=True))
        assert (spec.data >= base.data - 1e-7).all()
        assert (spec.data > base.data + 0.1).any()

    @pytest.mark.parametrize("field", ["intensity"])
    def test_light_rejects_nonpositive_or_non_finite(self, field):
        for value in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=f"light {field} .*got {value}"):
                LightModel(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("ridge_period_mm", 0.0), ("ridge_period_mm", -14.0), ("far_cap_mm", 0.0),
        ("texture_octaves", 0),
    ])
    def test_scene_rejects_nonpositive_scales(self, field, value):
        with pytest.raises(ValueError, match=f"scene {field} .*got {value}"):
            SceneParams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("radius_mm", 2e6), ("curve_amp_mm", -2e6), ("curve_amp_mm", 1e200),
        ("ridge_amp_mm", 1.5e6), ("ridge_period_mm", 1e155), ("far_cap_mm", 1e7),
    ])
    def test_scene_rejects_lengths_above_a_million_mm(self, field, value):
        # sqrt(dx*dx + dy*dy) overflows once lengths reach about 1e154 mm
        with pytest.raises(ValueError, match=f"scene {field} .*got {re.escape(str(value))}"):
            SceneParams(**{field: value})

    def test_scene_at_the_length_bound_renders(self):
        params = SceneParams(radius_mm=1e6, curve_amp_mm=-1e6, ridge_amp_mm=9e5,
                             ridge_period_mm=1e6, far_cap_mm=1e6)
        pts = np.random.default_rng(0).uniform(-1e6, 1e6, (1000, 3))
        assert np.isfinite(surface_field(params, pts)).all()
        normals = synthcolon.surface_normal(params, pts, synthcolon._wall_frame(params, pts))
        assert np.isfinite(normals).all()
        pose = generate_trajectory(params, 3, 1.0)[0]
        img, depth, hit = render_view(params, pose, CameraIntrinsics(3, 3, 1.5, 1.5), 4, 4)
        assert np.isfinite(depth.data).all() and np.isfinite(img.data).all()

    def test_camera_outside_tube_rejected(self):
        params = SceneParams(radius_mm=10, curve_amp_mm=0, seed=0)
        with pytest.raises(ValueError):
            render_view(params, Pose(np.eye(3), [50.0, 0, 0]), K64, 8, 8)


def _slopes(params):
    """max |c'(z)| and max |r'(z)| of the scene's axis and ridges."""
    axis = abs(params.curve_amp_mm * params.curve_freq) * np.hypot(1.0, 0.73)
    ridge = params.ridge_amp_mm * np.pi / params.ridge_period_mm
    return axis, ridge


def _tight_bound(params):
    """hypot(1, max|r'| + max|c'|), the bound the renderer steps with."""
    return np.hypot(1.0, sum(_slopes(params)))


def _loose_bound(params):
    """1 + max|c'| + max|r'|, the bound the renderer once stepped with."""
    axis, ridge = _slopes(params)
    return 1.0 + axis + ridge


def _reference_trace(params, origins, dirs, z_cam, L):
    """The original full-length sphere trace with step f / L: gathers and
    scatters the active rays of the whole frame on every iteration."""
    n = origins.shape[0]
    t = np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    t_cap = params.far_cap_mm / np.maximum(z_cam, 1e-9)
    for _ in range(synthcolon._TRACE_MAX_ITERS):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        p = origins[idx] + t[idx, None] * dirs[idx]
        f = surface_field(params, p)
        newly_hit = f < synthcolon._TRACE_TOL
        hit[idx[newly_hit]] = True
        active[idx[newly_hit]] = False
        adv = idx[~newly_hit]
        t[adv] += f[~newly_hit] / L
        over = t[adv] >= t_cap[adv]
        active[adv[over]] = False
    return t, hit


def _reference_value_noise(seed, pts, octaves):
    """The original per-point value noise: hashes all eight lattice
    corners of every point."""
    total = np.zeros(pts.shape[:-1])
    amp_sum = 0.0
    amp = 1.0
    for octave in range(max(octaves, 1)):
        q = pts * (2.0**octave)
        base = np.floor(q).astype(np.int64)
        frac = q - base
        acc = np.zeros(pts.shape[:-1])
        for corner in range(8):
            off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            w = np.ones(pts.shape[:-1])
            for axis in range(3):
                fa = frac[..., axis]
                w = w * (fa if off[axis] else 1.0 - fa)
            v = hash_unit_np(
                seed + 101 * octave,
                base[..., 0] + off[0],
                base[..., 1] + off[1],
                base[..., 2] + off[2],
            )
            acc += w * v
        total += amp * acc
        amp_sum += amp
        amp *= 0.5
    return total / amp_sum


def _reference_args(trace_args):
    """Per view of a ``_trace(params, z_cam, n_views, view_rays)`` call,
    the (params, origins, dirs, z_cam, L) that the reference trace takes,
    with the bound the renderer should step with."""
    params, z_cam, n_views, view_rays = trace_args
    views = [view_rays(i) for i in range(n_views)]
    return [(params, np.broadcast_to(origin, dirs.shape), dirs, z_cam,
             _tight_bound(params)) for origin, dirs in views]


def _reference_trace_views(*trace_args):
    """The reference trace view by view, behind ``_trace``'s signature."""
    n_views, n = trace_args[2], trace_args[1].size
    runs = [_reference_trace(*args) for args in _reference_args(trace_args)]
    t = np.array([t for t, _ in runs], dtype=np.float64).reshape(n_views, n)
    hit = np.array([hit for _, hit in runs], dtype=bool).reshape(n_views, n)
    return t, hit


def _captured_calls(monkeypatch, name, render, *render_args):
    """Arguments of every call ``render`` makes to synthcolon.<name>."""
    calls = []
    real = getattr(synthcolon, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(synthcolon, name, spy)
        render(*render_args)
    return calls


def _assert_matches_reference(monkeypatch, *render_args):
    """Trace, texture and the rendered bytes equal the reference
    implementations' bit for bit; returns t, hit and the trace's inputs."""
    (trace_args,) = _captured_calls(monkeypatch, "_trace", render_view, *render_args)
    t, hit = synthcolon._trace(*trace_args)
    (ref_args,) = _reference_args(trace_args)
    t_ref, hit_ref = _reference_trace(*ref_args)
    np.testing.assert_array_equal(t[0], t_ref)
    np.testing.assert_array_equal(hit[0], hit_ref)
    noise_calls = _captured_calls(monkeypatch, "_value_noise", render_view, *render_args)
    assert len(noise_calls) == 2
    for args in noise_calls:
        np.testing.assert_array_equal(
            synthcolon._value_noise(*args), _reference_value_noise(*args)
        )
    views = render_view(*render_args)
    with monkeypatch.context() as m:
        m.setattr(synthcolon, "_trace", _reference_trace_views)
        m.setattr(synthcolon, "_value_noise", _reference_value_noise)
        ref_views = render_view(*render_args)
    for a, b in zip(views, ref_views):
        assert a.data.tobytes() == b.data.tobytes()
    return t[0], hit[0], ref_args


def _assert_views_match_reference(monkeypatch, params, poses, *view_args):
    """One shared march over ``poses`` equals a reference trace of each
    view on its own, never marches more than one view's worth of rays or
    ``_RAY_BLOCK`` rays at a time, and every view's image, depth and mask
    equal a per-view reference render byte for byte; returns t, hit, z_cam
    and the number of march steps."""
    (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                    poses, *view_args)
    assert trace_args[2] == len(poses)
    live = []
    with monkeypatch.context() as m:
        m.setattr(synthcolon, "surface_field",
                  lambda p, pts: live.append(len(pts)) or surface_field(p, pts))
        t, hit = synthcolon._trace(*trace_args)
    # the camera checks evaluate one point per view
    steps = [k for k in live if k > 1]
    assert max(steps, default=0) <= min(trace_args[1].size, synthcolon._RAY_BLOCK)
    t_ref, hit_ref = _reference_trace_views(*trace_args)
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_array_equal(hit, hit_ref)
    views = render_views(params, poses, *view_args)
    with monkeypatch.context() as m:
        m.setattr(synthcolon, "_trace", _reference_trace_views)
        m.setattr(synthcolon, "_value_noise", _reference_value_noise)
        ref_views = [render_view(params, pose, *view_args) for pose in poses]
    assert len(views) == len(poses)
    for view, ref_view in zip(views, ref_views):
        for a, b in zip(view, ref_view):
            assert a.data.tobytes() == b.data.tobytes()
    return t, hit, trace_args[1], len(steps)


class TestMatchesReference:
    def test_quick_start_frame(self, monkeypatch):
        # frame 0 of the README quick-start scene: grazing rays keep the
        # reference loop running for over a thousand iterations
        params = SceneParams(seed=21)
        pose = generate_trajectory(params, 12, 1.0, sway_mm=2.5)[0]
        _assert_matches_reference(monkeypatch, params, pose, K64, 64, 64)

    def test_straight_tube_far_cap_rays(self, monkeypatch):
        params = SceneParams(radius_mm=10, curve_amp_mm=0, ridge_amp_mm=0,
                             far_cap_mm=60, seed=3)
        K = CameraIntrinsics(32, 32, 31.5, 31.5)
        _, hit, _ = _assert_matches_reference(monkeypatch, params, Pose.identity(),
                                              K, 64, 64)
        assert not hit.all()

    def test_specular_view(self, monkeypatch):
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        _assert_matches_reference(monkeypatch, params, pose, K64, 48, 48,
                                  LightModel(specular=True))

    def test_empty_view(self):
        pts = np.zeros((4, 0, 3))
        noise = synthcolon._value_noise(0, pts, 3)
        assert noise.shape == (4, 0)
        np.testing.assert_array_equal(noise, _reference_value_noise(0, pts, 3))
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        img, depth, hit = render_view(params, pose, K64, 0, 4)
        assert img.data.shape == (4, 0, 3) and hit.data.shape == (4, 0)

    def test_iteration_cap_leaves_misses(self, monkeypatch):
        monkeypatch.setattr(synthcolon, "_TRACE_MAX_ITERS", 40)
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        t, hit, (_, _, _, z_cam, _) = _assert_matches_reference(
            monkeypatch, params, pose, K64, 48, 48)
        exhausted = ~hit & (t * z_cam < params.far_cap_mm)
        assert exhausted.any() and hit.any()


class TestSharedMarch:
    def test_quick_start_trajectory(self, monkeypatch):
        # the README quick-start dataset: 12 frames at 64x64, seed 21,
        # 2.5 mm sway, the CLI's default intrinsics and light
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
        _, hit, _, steps = _assert_views_match_reference(monkeypatch, params, poses,
                                                         K64, 64, 64)
        assert not hit.all()
        # one march, not twelve: frame 0 alone takes over a thousand steps
        assert steps < 2 * 1224

    def test_late_rays_get_their_own_step_budget(self, monkeypatch):
        # with 40 steps per ray, most rays of every view run out of steps;
        # a view's rays enter once an eighth of the live set has finished,
        # so a budget shared with the first view would cut them short
        monkeypatch.setattr(synthcolon, "_TRACE_MAX_ITERS", 40)
        params = SceneParams(seed=11)
        poses = generate_trajectory(params, 4, 1.0)
        t, hit, z_cam, steps = _assert_views_match_reference(
            monkeypatch, params, poses, K64, 48, 48)
        # no ray takes more than 40 steps, so a longer march has rays that
        # entered after it began
        assert steps > 40
        exhausted = ~hit & (t * z_cam < params.far_cap_mm)
        assert exhausted[1:].any(axis=1).all() and hit[1:].any(axis=1).all()

    @pytest.mark.parametrize("w, h", [(40, 24), (1, 24)], ids=["40x24", "strip"])
    def test_non_square_views(self, monkeypatch, w, h):
        # views whose rows and columns differ in number, one a single
        # column wide: a march that mixed up its ray and coordinate axes
        # would not match the per-view reference
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 5, 1.0, sway_mm=2.5)
        K = CameraIntrinsics(30, 30, (w - 1) / 2, (h - 1) / 2)
        _, hit, _, _ = _assert_views_match_reference(monkeypatch, params, poses, K, w, h)
        assert hit.shape == (5, w * h) and hit.any()

    def test_quick_start_march_work(self, monkeypatch):
        # the README quick-start trajectory evaluates the field at a fixed
        # number of points, the camera checks included: a change to the
        # march's layout or compaction that moves it changes the work done
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
        (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                        poses, K64, 64, 64)
        assert _traced_depths(monkeypatch, trace_args)[3] == 1_559_133

    def test_no_poses(self):
        params = SceneParams(seed=11)
        assert render_views(params, [], K64, 48, 48) == []
        z_cam = np.ones(16)
        t, hit = synthcolon._trace(params, z_cam, 0, None)
        assert t.shape == hit.shape == (0, 16)

    def test_zero_width_views(self):
        params = SceneParams(seed=11)
        poses = generate_trajectory(params, 3, 1.0)
        views = render_views(params, poses, K64, 0, 4)
        assert len(views) == 3
        for img, depth, hit in views:
            assert img.data.shape == (4, 0, 3)
            assert depth.data.shape == hit.data.shape == (4, 0)


class TestRayBlocks:
    @pytest.mark.parametrize("block, w, h", [
        (37, 40, 24), (1000, 48, 48), (1000, 40, 24), (37, 1, 24), (37, 0, 4),
    ], ids=["37-40x24", "1000-48x48", "1000-40x24", "37-strip", "37-zero-width"])
    def test_blocks_change_no_byte(self, monkeypatch, block, w, h):
        # blocks that divide no view's ray count, views smaller than a block
        # and views with no rays: the march and the shading give the bytes
        # of one block per view and of the reference
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 3, 1.0, sway_mm=2.5)
        K = CameraIntrinsics(30, 30, (w - 1) / 2, (h - 1) / 2)
        (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                        poses, K, w, h)
        assert synthcolon._RAY_BLOCK >= w * h
        t_whole, hit_whole = synthcolon._trace(*trace_args)
        whole = render_views(params, poses, K, w, h)
        monkeypatch.setattr(synthcolon, "_RAY_BLOCK", block)
        t, hit, _, _ = _assert_views_match_reference(monkeypatch, params, poses, K, w, h)
        assert t.tobytes() == t_whole.tobytes()
        assert hit.tobytes() == hit_whole.tobytes()
        views = render_views(params, poses, K, w, h)
        assert len(views) == len(whole) == len(poses)
        for view, whole_view in zip(views, whole):
            assert view[0].data.shape == (h, w, 3)
            for a, b in zip(view, whole_view):
                assert a.data.tobytes() == b.data.tobytes()

    def test_quick_start_march_work_in_blocks(self, monkeypatch):
        # every ray takes the steps of the reference trace, which evaluates
        # only rays that still march; the march also evaluates finished rays
        # until the next compaction, which comes before an eighth of the
        # live set has finished, at any block size
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
        (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                        poses, K64, 64, 64)
        ray_steps = []
        with monkeypatch.context() as m:
            # the reference trace reads this module's surface_field
            m.setitem(globals(), "surface_field", lambda p, pts: ray_steps.append(len(pts))
                      or synthcolon.surface_field(p, pts))
            _reference_trace_views(*trace_args)
        ray_steps = sum(ray_steps)
        monkeypatch.setattr(synthcolon, "_RAY_BLOCK", 1000)
        points = _traced_depths(monkeypatch, trace_args)[3]
        assert ray_steps <= points < ray_steps / (1.0 - synthcolon._TRACE_COMPACT_SHARE)

    def test_transient_memory_is_bounded_by_the_block(self):
        # a 3-frame 256x256 render of the README scene: the live rays and
        # the shading temporaries are capped at _RAY_BLOCK rays, so the
        # traced peak is 16.6 MB (numpy 2.4).  Marching whole views peaks
        # at 23.4 MB and shading whole views at 34.5 MB; the bound catches
        # either and leaves 20% headroom.
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 3, 1.0, sway_mm=2.5)
        K = CameraIntrinsics(192, 192, 127.5, 127.5)
        tracemalloc.start()
        try:
            render_views(params, poses, K, 256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def _render_counted(monkeypatch, field, shade, params, poses, *view_args):
    """``render_views`` with ``field`` as the wall field and ``shade`` as
    the shading: the views, the march's (t, hit) and the number of points
    at which the field was evaluated."""
    points, traced = [], []
    trace = synthcolon._trace
    with monkeypatch.context() as m:
        m.setattr(synthcolon, "surface_field",
                  lambda p, pts: points.append(len(pts)) or field(p, pts))
        m.setattr(synthcolon, "_shade", shade)
        m.setattr(synthcolon, "_trace", lambda *args: traced.append(trace(*args)) or traced[0])
        views = render_views(params, poses, *view_args)
    return views, traced[0], sum(points)


class TestWallGeometry:
    @pytest.mark.parametrize("n, w, K, light", [
        (12, 64, K64, LightModel()),
        (3, 256, CameraIntrinsics(192, 192, 127.5, 127.5), LightModel(specular=True)),
    ], ids=["quick-start", "256-specular"])
    def test_matches_the_plain_formulas(self, monkeypatch, n, w, K, light):
        # the field's sqrt(dx*dx + dy*dy) and folded ridge, and shading from
        # one wall frame, against np.hypot, R - A (0.5 + 0.5 cos) and the
        # arctan2 angle: float64 values may move by about an ulp, so rays
        # may end a few ulps apart, but they take the same steps, hit the
        # same wall and give the same bytes.  A miss's t is not written (its
        # depth is the far cap); it sums up to 2,048 steps, and on the quick
        # start it drifts by up to 3e-11 mm
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, n, 1.0, sway_mm=2.5)
        args = (params, poses, K, w, w, light)
        views, (t, hit), points = _render_counted(
            monkeypatch, surface_field, synthcolon._shade, *args)
        ref_views, (t_ref, hit_ref), ref_points = _render_counted(
            monkeypatch, wall_field, wall_shade, *args)
        np.testing.assert_array_equal(hit, hit_ref)
        assert points == ref_points
        drift = np.abs(t - t_ref)
        assert drift[hit].max() <= 1e-12
        assert drift.max() <= 1e-9
        for view, ref_view in zip(views, ref_views, strict=True):
            for a, b in zip(view, ref_view):
                assert a.data.tobytes() == b.data.tobytes()

    def test_field_and_frame_within_an_ulp_or_two(self):
        # random points in and around the lumen of a steep scene, up to
        # about 100 mm from its axis: the field moves by a few ulps of that
        params = SceneParams(curve_amp_mm=30.0, curve_freq=0.12, ridge_amp_mm=8.0,
                             ridge_period_mm=6.0)
        pts = np.random.default_rng(3).uniform(-40.0, 40.0, (10_000, 3))
        f = surface_field(params, pts)
        np.testing.assert_allclose(f, wall_field(params, pts), rtol=0,
                                   atol=4 * np.spacing(128.0))
        ux, uy = synthcolon._wall_frame(params, pts)
        cx, cy = synthcolon._axis_center(params, pts[:, 2])
        theta = np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)
        np.testing.assert_allclose(ux, np.cos(theta), rtol=0, atol=1e-15)
        np.testing.assert_allclose(uy, np.sin(theta), rtol=0, atol=1e-15)
        # a scalar point is still a point
        assert surface_field(params, pts[0]) == f[0]


class TestCellNumbering:
    @pytest.mark.parametrize("dense", [0, 10**6], ids=["sort", "count"])
    def test_numbering_is_np_unique(self, monkeypatch, dense):
        monkeypatch.setattr(synthcolon, "_DENSE_CELLS", dense)
        keys = np.random.default_rng(0).integers(0, 5_000, 3_000)
        cells, cell_of = synthcolon._number_cells(keys, 5_000)
        want, want_of = np.unique(keys, return_inverse=True)
        np.testing.assert_array_equal(cells, want)
        np.testing.assert_array_equal(cell_of, want_of)

    @pytest.mark.parametrize("w, h", [(64, 64), (1, 24)], ids=["64x64", "strip"])
    def test_both_paths_give_the_same_noise(self, monkeypatch, w, h):
        # the README quick-start frame takes both paths with the default
        # threshold; forcing either one changes no byte of the noise
        params = SceneParams(seed=21)
        pose = generate_trajectory(params, 3, 1.0, sway_mm=2.5)[0]
        K = CameraIntrinsics(48, 48, (w - 1) / 2, (h - 1) / 2)
        noise_calls = _captured_calls(monkeypatch, "_value_noise", render_view,
                                      params, pose, K, w, h)
        assert len(noise_calls) == 2
        sorts = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
        for args in noise_calls:
            want = _reference_value_noise(*args)
            got = {}
            for dense in (0, 10**6):
                sorts.clear()
                monkeypatch.setattr(synthcolon, "_DENSE_CELLS", dense)
                got[dense] = synthcolon._value_noise(*args)
                # one sort per octave, or none
                assert len(sorts) == (args[2] if dense == 0 else 0)
                np.testing.assert_array_equal(got[dense], want)
            assert got[0].tobytes() == got[10**6].tobytes()


class TestUnitRays:
    def test_built_once_per_call(self, tmp_path, monkeypatch):
        # render_views and write_dataset build the camera-frame unit rays
        # once and shade every view with them; each view is still one
        # render_view(params, pose, K, w, h, light, ...) call
        params = SceneParams(seed=2)
        poses = generate_trajectory(params, 4, 1.0)
        light = LightModel()
        built, renders = [], []
        unit_rays, render = synthcolon._unit_rays, synthcolon.render_view
        monkeypatch.setattr(synthcolon, "_unit_rays",
                            lambda *a: built.append(a) or unit_rays(*a))

        def spy(*args, **kwargs):
            renders.append(args)
            return render(*args, **kwargs)

        monkeypatch.setattr(synthcolon, "render_view", spy)
        views = render_views(params, poses, K64, 16, 12, light)
        assert len(built) == 1 and len(renders) == len(views) == 4
        write_dataset(tmp_path / "ds", params, K64, 4, 1.0, 16, 12, light)
        assert len(built) == 2 and len(renders) == 8
        for args, pose in zip(renders, poses + poses):
            assert len(args) == 6 and args[0] is params and args[2:] == (K64, 16, 12, light)
            assert np.array_equal(args[1].translation, pose.translation)
        # a view rendered on its own builds its rays itself
        render_view(params, poses[0], K64, 16, 12)
        assert len(built) == 3


def _field_gradient(params, pts):
    """grad f, computed as :func:`surface_normal` does before it
    normalises: (-u, r'(z) + u . c'(z)) with u the unit radial direction."""
    cx, cy = synthcolon._axis_center(params, pts[..., 2])
    dx, dy = pts[..., 0] - cx, pts[..., 1] - cy
    rho = np.hypot(dx, dy)
    ux, uy = dx / rho, dy / rho
    dcx, dcy = synthcolon._axis_tangent(params, pts[..., 2])
    gz = synthcolon._ridge_radius_dz(params, pts[..., 2]) + ux * dcx + uy * dcy
    return np.stack([-ux, -uy, gz], axis=-1)


def _traced_depths(monkeypatch, trace_args):
    """Depth t * z_cam, hit flags, and whether each ray ran out of steps,
    of one ``_trace`` call, with the number of points it evaluated."""
    points = []
    with monkeypatch.context() as m:
        m.setattr(synthcolon, "surface_field",
                  lambda p, pts: points.append(len(pts)) or surface_field(p, pts))
        t, hit = synthcolon._trace(*trace_args)
    params, z_cam = trace_args[:2]
    depth = t * z_cam
    return depth, hit, ~hit & (depth < params.far_cap_mm), sum(points)


class TestStepBound:
    @pytest.mark.parametrize("params", [
        SceneParams(), SceneParams(seed=11), SceneParams(seed=21),
        SceneParams(curve_amp_mm=25.0, ridge_amp_mm=5.0),
        SceneParams(curve_amp_mm=30.0, curve_freq=0.12, ridge_amp_mm=8.0,
                    ridge_period_mm=6.0),
        SceneParams(curve_amp_mm=-10.0, seed=21), SceneParams(curve_freq=-0.05, seed=21),
    ], ids=["default", "seed11", "seed21", "larger-amps", "steep", "negative-amp",
            "negative-freq"])
    def test_bound_holds_in_the_lumen(self, params):
        rng = np.random.default_rng(0)
        z = rng.uniform(-300.0, 300.0, 100_000)
        theta = rng.uniform(0.0, 2.0 * np.pi, z.size)
        rho = rng.uniform(0.01, 1.0, z.size) * synthcolon._ridge_radius(params, z)
        cx, cy = synthcolon._axis_center(params, z)
        pts = np.stack([cx + rho * np.cos(theta), cy + rho * np.sin(theta), z], -1)
        assert (surface_field(params, pts) > 0).all()
        g = _field_gradient(params, pts)
        norm = np.linalg.norm(g, axis=-1)
        normals = synthcolon.surface_normal(params, pts, synthcolon._wall_frame(params, pts))
        np.testing.assert_allclose(g / norm[:, None], normals, rtol=0, atol=1e-12)
        # the analytic gradient is the field's: central differences agree
        h = 1e-5
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (surface_field(params, pts[:500] + e)
                  - surface_field(params, pts[:500] - e)) / (2 * h)
            np.testing.assert_allclose(fd, g[:500, axis], atol=1e-6)
        L = synthcolon._lipschitz(params)
        assert L == _tight_bound(params)
        assert L >= norm.max()
        assert L < _loose_bound(params)

    def test_straight_tube_bound_is_one(self):
        # the closed-form straight-tube oracle keeps its bytes
        params = SceneParams(radius_mm=10, curve_amp_mm=0, ridge_amp_mm=0)
        assert synthcolon._lipschitz(params) == 1.0 == _loose_bound(params)

    def test_tight_bound_moves_hits_within_the_tolerance(self, monkeypatch):
        # the README quick-start trajectory traced with the old bound and
        # with the renderer's: depths agree where both hit, a ray that hits
        # in only one trace ran out of steps in the other, and the tight
        # bound evaluates the field at most 0.7x as often
        params = SceneParams(seed=21)
        poses = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
        (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                        poses, K64, 64, 64)
        depth, hit, exhausted, steps = _traced_depths(monkeypatch, trace_args)
        with monkeypatch.context() as m:
            m.setattr(synthcolon, "_lipschitz", _loose_bound)
            depth_old, hit_old, exhausted_old, steps_old = _traced_depths(
                monkeypatch, trace_args)
        both = hit & hit_old
        assert both.mean() > 0.9
        assert np.abs(depth - depth_old)[both].max() <= synthcolon._TRACE_TOL
        flips = hit != hit_old
        assert np.where(hit, exhausted_old, exhausted)[flips].all()
        assert steps <= 0.70 * steps_old

    @pytest.mark.parametrize("params", [
        SceneParams(curve_amp_mm=-10.0, seed=21), SceneParams(curve_freq=-0.05, seed=21),
    ], ids=["negative-amp", "negative-freq"])
    def test_hits_lie_on_the_wall(self, monkeypatch, params):
        # the quick-start trajectory in a scene whose axis bends the other
        # way: a bound that kept the sign would step through the wall
        poses = generate_trajectory(params, 12, 1.0, sway_mm=2.5)
        (trace_args,) = _captured_calls(monkeypatch, "_trace", render_views, params,
                                        poses, K64, 64, 64)
        t, hit = synthcolon._trace(*trace_args)
        view_rays = trace_args[3]
        assert hit.mean() > 0.9
        for i in range(len(poses)):
            origin, dirs = view_rays(i)
            f = surface_field(params, origin + t[i][hit[i], None] * dirs[hit[i]])
            assert np.abs(f).max() <= synthcolon._TRACE_TOL


class TestTrajectory:
    def test_straight_axis_zero_noise_pure_z_steps(self):
        params = SceneParams(curve_amp_mm=0.0, seed=5)
        traj = generate_trajectory(params, 5, 2.0, heading_noise_rad=0.0)
        for a, b in zip(traj, traj[1:]):
            rel = relative_pose(b, a)  # next frame's coords of prior origin
            np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(rel.translation, [0, 0, 2.0], atol=1e-12)

    def test_minimum_three_frames(self):
        with pytest.raises(ValueError):
            generate_trajectory(SceneParams(), 2, 1.0)

    def test_step_too_large_rejected(self):
        with pytest.raises(ValueError, match="step too large"):
            generate_trajectory(SceneParams(radius_mm=10.0), 5, 11.0)

    def test_relative_composition_telescopes(self):
        params = SceneParams(seed=9)
        traj = generate_trajectory(params, 8, 1.5)
        # chain of per-hop transforms frame0 -> frame7, left to right
        acc = Pose.identity()
        for i in range(len(traj) - 1):
            acc = relative_pose(traj[i], traj[i + 1]).compose(acc)
        want = relative_pose(traj[0], traj[-1])
        assert np.abs(acc.rotation - want.rotation).max() < 1e-9
        assert np.abs(acc.translation - want.translation).max() < 1e-9

    def test_deterministic_per_seed(self):
        a = generate_trajectory(SceneParams(seed=4), 4, 1.0)
        b = generate_trajectory(SceneParams(seed=4), 4, 1.0)
        assert all(
            np.array_equal(x.rotation, y.rotation)
            and np.array_equal(x.translation, y.translation)
            for x, y in zip(a, b)
        )


class TestViewSynthesisConsistency:
    def test_gt_warp_reproduces_target(self):
        # the assumption behind photometric self-supervision: a source view
        # warped with true depth and pose matches the target almost exactly
        errs = []
        for seed in range(4):
            params = SceneParams(seed=seed)
            traj = generate_trajectory(params, 3, 0.35)
            views = [render_view(params, p, K64, 64, 64) for p in traj]
            for src in (0, 2):
                rel = relative_pose(traj[1], traj[src])
                warped, valid = synthesize_warped_image(
                    views[src][0], views[1][1], rel, K64
                )
                sel = valid.data & views[1][2].data
                l1 = np.abs(
                    warped.data.astype(np.float64) - views[1][0].data.astype(np.float64)
                ).mean(axis=2)
                errs.append(l1[sel].mean())
        assert np.mean(errs) < 0.02


class TestSfmLabels:
    def make_depth(self):
        params = SceneParams(seed=11)
        pose = generate_trajectory(params, 3, 1.0)[0]
        _, depth, _ = render_view(params, pose, K64, 64, 64)
        return depth

    def test_identity_settings(self):
        d = self.make_depth()
        d_sfm, mask = simulate_sfm_labels(d, seed=5, hole_fraction=0.0,
                                          noise_rel=0.0, global_scale=1.0)
        assert np.array_equal(d_sfm.data, d.data)
        assert mask.data.all()

    def test_scale_recovered_by_median_correction(self):
        d = self.make_depth()
        d_sfm, _ = simulate_sfm_labels(d, seed=5, hole_fraction=0.0,
                                       noise_rel=0.0, global_scale=0.5)
        assert scale_correction(d, d_sfm) == pytest.approx(2.0, rel=1e-6)

    def test_hole_fraction_binomial(self):
        d = DepthMap(np.random.default_rng(0).uniform(5, 50, (100, 100)).astype(np.float32))
        _, mask = simulate_sfm_labels(d, seed=9, hole_fraction=0.3,
                                      noise_rel=0.0, global_scale=1.0)
        density = mask.data.mean()
        assert density == pytest.approx(0.7, abs=0.02)

    def test_holes_bias_toward_gradients(self):
        d = self.make_depth()
        _, mask = simulate_sfm_labels(d, seed=9, hole_fraction=0.3,
                                      noise_rel=0.0, global_scale=1.0)
        gmag = np.hypot(*np.gradient(d.data.astype(np.float64)))
        thresh = np.median(gmag)
        holes = ~mask.data
        high = holes[gmag > thresh].mean()
        low = holes[gmag <= thresh].mean()
        assert high > 1.5 * low

    def test_noise_level(self):
        d = self.make_depth()
        d_sfm, mask = simulate_sfm_labels(d, seed=5, hole_fraction=0.0,
                                          noise_rel=0.05, global_scale=1.0)
        rel = d_sfm.data / d.data - 1.0
        assert np.std(rel) == pytest.approx(0.05, abs=0.01)

    def test_deterministic(self):
        d = self.make_depth()
        a = simulate_sfm_labels(d, seed=5, hole_fraction=0.2, noise_rel=0.05)
        b = simulate_sfm_labels(d, seed=5, hole_fraction=0.2, noise_rel=0.05)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_parameter_validation(self):
        d = self.make_depth()
        with pytest.raises(ValueError):
            simulate_sfm_labels(d, 0, hole_fraction=1.0)
        with pytest.raises(ValueError):
            simulate_sfm_labels(d, 0, global_scale=0.0)


class TestDatasetLayout:
    def test_directory_contract(self, tmp_path):
        params = SceneParams(seed=2)
        write_dataset(tmp_path / "ds", params, K64, 3, 1.0, 16, 16)
        names = sorted(p.name for p in (tmp_path / "ds").iterdir())
        assert names == [
            "depth_0000.pfm", "depth_0001.pfm", "depth_0002.pfm",
            "frame_0000.ppm", "frame_0001.ppm", "frame_0002.ppm",
            "intrinsics.json",
            "pose_0000.json", "pose_0001.json", "pose_0002.json",
        ]

    def test_rerun_bit_identical(self, tmp_path):
        params = SceneParams(seed=2)
        write_dataset(tmp_path / "a", params, K64, 3, 1.0, 16, 16)
        write_dataset(tmp_path / "b", params, K64, 3, 1.0, 16, 16)
        for name in ("frame_0001.ppm", "depth_0002.pfm", "pose_0000.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_one_shaded_view_alive_at_a_time(self, tmp_path, monkeypatch):
        # each view is written and dropped before the next one is shaded,
        # and the files hold render_views' bytes
        params = SceneParams(seed=2)
        views = render_views(params, generate_trajectory(params, 4, 1.0), K64, 16, 16)
        alive = []
        render = synthcolon.render_view

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in alive)
            view = render(*args, **kwargs)
            alive.extend(weakref.ref(part) for part in view)
            return view

        monkeypatch.setattr(synthcolon, "render_view", tracked)
        write_dataset(tmp_path / "ds", params, K64, 4, 1.0, 16, 16)
        assert len(alive) == 12
        for i, (img, _, _) in enumerate(views):
            write_ppm(img, tmp_path / "ref.ppm")
            assert ((tmp_path / "ds" / f"frame_{i:04d}.ppm").read_bytes()
                    == (tmp_path / "ref.ppm").read_bytes())
