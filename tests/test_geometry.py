import json

import numpy as np
import pytest
from _reference import (
    BehindCameraError,
    InvalidDepthError,
    backproject,
    project,
    warp_pixel,
)

from scopedepth.geometry import (
    CameraIntrinsics,
    Pose,
    relative_pose,
    rotation_xyz,
    synthesize_warped_image,
    warp_basis,
    warp_from_basis,
)
from scopedepth.imagery import DepthMap, Image


def rand_intrinsics(rng):
    return CameraIntrinsics(
        rng.uniform(10, 500), rng.uniform(10, 500),
        rng.uniform(-50, 150), rng.uniform(-50, 150),
    )


class TestIntrinsics:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "31.5"],
                             ids=["nan", "inf", "-inf", "str"])
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_rejects_non_finite(self, field, value):
        # a NaN principal point once rendered every pixel as a far-cap miss
        args = {"fx": 48.0, "fy": 48.0, "cx": 31.5, "cy": 31.5, field: value}
        with pytest.raises(ValueError, match=f"intrinsics {field} must be finite"):
            CameraIntrinsics(**args)

    @pytest.mark.parametrize("field", ["fx", "fy"])
    def test_rejects_nonpositive_focal_length(self, field):
        args = {"fx": 48.0, "fy": 48.0, "cx": 31.5, "cy": 31.5, field: 0.0}
        with pytest.raises(ValueError, match=f"intrinsics {field} must be positive"):
            CameraIntrinsics(**args)


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        assert project(CameraIntrinsics(1, 1, 0, 0), (0, 0, 1)) == (0.0, 0.0)

    def test_hand_pinhole_case(self):
        K = CameraIntrinsics(100, 100, 50, 50)
        assert project(K, (1, 2, 2)) == (100.0, 150.0)

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCameraError):
            project(CameraIntrinsics(100, 100, 50, 50), (0, 0, -1))

    def test_backproject_principal_ray(self):
        p = backproject(CameraIntrinsics(1, 1, 0, 0), (0, 0), 5)
        np.testing.assert_allclose(p, (0, 0, 5))

    def test_backproject_inverts_projection(self):
        p = backproject(CameraIntrinsics(100, 100, 50, 50), (100, 150), 2)
        np.testing.assert_allclose(p, (1, 2, 2))

    def test_backproject_rejects_nonpositive_depth(self):
        with pytest.raises(InvalidDepthError):
            backproject(CameraIntrinsics(1, 1, 0, 0), (0, 0), 0)

    def test_project_backproject_identity_property(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            K = rand_intrinsics(rng)
            j = (rng.uniform(-100, 300), rng.uniform(-100, 300))
            d = rng.uniform(1e-2, 1e3)
            u, v = project(K, backproject(K, j, d))
            assert abs(u - j[0]) < 1e-6 and abs(v - j[1]) < 1e-6


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.1, np.zeros(3))

    def test_rejects_non_finite(self):
        # NaN passes the orthonormality and determinant tests on its own
        for R, t in ((np.full((3, 3), np.nan), np.zeros(3)),
                     (np.eye(3), [0.0, np.inf, 0.0])):
            with pytest.raises(ValueError, match="finite"):
                Pose(R, t)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = Pose(rotation_xyz(*rng.uniform(-3, 3, 3)), rng.uniform(-10, 10, 3))
            c = g.compose(g.inverse())
            assert np.abs(c.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(c.translation).max() < 1e-9

    def test_composition_associative(self):
        rng = np.random.default_rng(2)
        g = [
            Pose(rotation_xyz(*rng.uniform(-3, 3, 3)), rng.uniform(-5, 5, 3))
            for _ in range(3)
        ]
        left = g[0].compose(g[1]).compose(g[2])
        right = g[0].compose(g[1].compose(g[2]))
        assert np.abs(left.rotation - right.rotation).max() < 1e-12
        assert np.abs(left.translation - right.translation).max() < 1e-12

    def test_json_roundtrip(self, tmp_path):
        g = Pose(rotation_xyz(0.1, 0.2, 0.3), [1.0, -2.0, 3.0])
        g.save(tmp_path / "pose.json")
        with open(tmp_path / "pose.json") as f:
            blob = json.load(f)
        assert set(blob) == {"R", "t"} and len(blob["R"]) == 9 and len(blob["t"]) == 3
        back = Pose.load(tmp_path / "pose.json")
        assert np.array_equal(back.rotation, g.rotation)
        assert np.array_equal(back.translation, g.translation)


class TestWarp:
    def test_identity_pose_is_identity_map(self):
        K = CameraIntrinsics(100, 100, 50, 50)
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = (rng.uniform(0, 100), rng.uniform(0, 100))
            d = rng.uniform(0.5, 50)
            jp, ok = warp_pixel(j, d, K, Pose(np.eye(3), np.zeros(3)))
            assert ok
            assert jp[0] == pytest.approx(j[0], abs=1e-12)
            assert jp[1] == pytest.approx(j[1], abs=1e-12)

    def test_hand_translation_case(self):
        K = CameraIntrinsics(100, 100, 50, 50)
        jp, ok = warp_pixel((50, 50), 2.0, K, Pose(np.eye(3), [0, 0, -1]))
        assert ok and jp == pytest.approx((50.0, 50.0))

    def test_point_behind_source_invalid(self):
        K = CameraIntrinsics(100, 100, 50, 50)
        _, ok = warp_pixel((50, 50), 1.0, K, Pose(np.eye(3), [0, 0, -5]))
        assert not ok

    def test_warp_rejects_nonpositive_depth(self):
        K = CameraIntrinsics(100, 100, 50, 50)
        with pytest.raises(InvalidDepthError):
            warp_pixel((0, 0), -1.0, K, Pose(np.eye(3), np.zeros(3)))

    def test_forward_backward_returns_to_start_on_plane(self):
        # fronto-parallel plane at z0 in the target frame: the source-frame
        # depth of each warped pixel is analytic, so warping back with it
        # must land on the starting pixel
        K = CameraIntrinsics(80, 80, 32, 32)
        rng = np.random.default_rng(4)
        z0 = 20.0
        for _ in range(60):
            g = Pose(
                rotation_xyz(*rng.uniform(-0.1, 0.1, 3)), rng.uniform(-1, 1, 3)
            )
            j = (rng.uniform(10, 54), rng.uniform(10, 54))
            jp, ok = warp_pixel(j, z0, K, g)
            if not ok:
                continue
            p_src = g.rotation @ backproject(K, j, z0) + g.translation
            back, ok2 = warp_pixel(jp, p_src[2], K, g.inverse())
            assert ok2
            assert back[0] == pytest.approx(j[0], abs=1e-4)
            assert back[1] == pytest.approx(j[1], abs=1e-4)

    def test_vectorized_warp_matches_scalar(self):
        K = CameraIntrinsics(60, 70, 31, 33)
        g = Pose(rotation_xyz(0.05, -0.03, 0.1), [0.5, -0.2, 0.8])
        rng = np.random.default_rng(5)
        d = rng.uniform(5, 40, (6, 7))
        xs, ys, in_front, _, _ = warp_from_basis(d, K, g, warp_basis(K, g, 7, 6))
        for y in range(6):
            for x in range(7):
                jp, ok = warp_pixel((x, y), d[y, x], K, g)
                if in_front[y, x]:
                    assert jp[0] == pytest.approx(xs[y, x]) and jp[1] == pytest.approx(ys[y, x])

    def test_warp_depth_jacobian_matches_central_differences(self):
        K = CameraIntrinsics(60, 70, 31, 33)
        g = Pose(rotation_xyz(0.05, -0.03, 0.1), [0.5, -0.2, 0.8])
        rng = np.random.default_rng(6)
        d = rng.uniform(5, 40, (6, 7))
        basis = warp_basis(K, g, 7, 6)
        _, _, in_front, dx_dd, dy_dd = warp_from_basis(d, K, g, basis)
        assert in_front.all()
        eps = 1e-5
        xp, yp, _, _, _ = warp_from_basis(d + eps, K, g, basis)
        xm, ym, _, _, _ = warp_from_basis(d - eps, K, g, basis)
        np.testing.assert_allclose(dx_dd, (xp - xm) / (2 * eps), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(dy_dd, (yp - ym) / (2 * eps), rtol=1e-6, atol=1e-9)


class TestSynthesize:
    def test_identity_warp_reproduces_source(self):
        # border pixels may fall an ulp outside the domain; the contract is
        # exact reproduction on valid pixels and a fully valid interior
        rng = np.random.default_rng(6)
        K = CameraIntrinsics(40, 40, 15.5, 15.5)
        img = Image(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        depth = DepthMap(rng.uniform(5, 20, (32, 32)).astype(np.float32))
        warped, valid = synthesize_warped_image(img, depth, Pose(np.eye(3), np.zeros(3)), K)
        assert valid.data[1:-1, 1:-1].all()
        sel = valid.data
        np.testing.assert_allclose(warped.data[sel], img.data[sel], atol=1e-6)

    def test_large_translation_invalidates_border(self):
        K = CameraIntrinsics(40, 40, 15.5, 15.5)
        img = Image(np.full((32, 32, 3), 0.5, dtype=np.float32))
        depth = DepthMap(np.full((32, 32), 10.0, dtype=np.float32))
        warped, valid = synthesize_warped_image(
            img, depth, Pose(np.eye(3), [5.0, 0, 0]), K
        )
        assert not valid.data.all()
        assert valid.data.any()

    def test_dimension_mismatch_raises(self):
        K = CameraIntrinsics(40, 40, 15.5, 15.5)
        img = Image(np.zeros((8, 8, 3), dtype=np.float32))
        depth = DepthMap(np.ones((9, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            synthesize_warped_image(img, depth, Pose(np.eye(3), np.zeros(3)), K)


def test_relative_pose_direction():
    # point on the target camera axis, source camera one mm behind: the
    # point must appear one mm deeper in the source frame
    tgt = Pose(np.eye(3), [0, 0, 5.0])
    src = Pose(np.eye(3), [0, 0, 4.0])
    rel = relative_pose(tgt, src)
    p_src = rel.rotation @ np.array([0.0, 0.0, 10.0]) + rel.translation
    np.testing.assert_allclose(p_src, [0, 0, 11.0])
