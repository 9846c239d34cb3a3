import numpy as np
import pytest
from scipy.special import ndtri

from scopedepth.imagery import DepthMap, Mask, UncMap
from scopedepth.metrics import (
    CalibrationCurve,
    auce,
    calibration_curve,
    default_p_grid,
    depth_metrics,
    normal_ppf,
    scale_correction,
)


def dm(arr):
    return DepthMap(np.asarray(arr, dtype=np.float32))


class TestScaleCorrection:
    def test_identity(self):
        d = dm([[1.0, 2.0], [3.0, 4.0]])
        assert scale_correction(d, d) == pytest.approx(1.0)

    def test_homogeneity(self):
        d = dm([[1.0, 2.0], [3.0, 4.0]])
        half = dm([[0.5, 1.0], [1.5, 2.0]])
        assert scale_correction(d, half) == pytest.approx(2.0)

    def test_even_count_median_hand_case(self):
        gt = dm([[1.0, 2.0, 3.0, 4.0]])  # median 2.5
        pred = dm([[2.0, 2.0, 2.0, 10.0]])  # median 2.0
        assert scale_correction(gt, pred) == pytest.approx(1.25)

    def test_respects_mask(self):
        gt = dm([[1.0, 100.0]])
        pred = dm([[2.0, 0.5]])
        m = Mask(np.array([[True, False]]))
        assert scale_correction(gt, pred, m) == pytest.approx(0.5)

    def test_no_valid_pixels(self):
        with pytest.raises(ValueError):
            scale_correction(dm([[1.0]]), dm([[1.0]]), Mask(np.array([[False]])))


class TestDepthMetrics:
    def test_perfect_prediction(self):
        d = dm([[1.0, 5.0], [10.0, 2.0]])
        m = depth_metrics(d, d)
        assert m.abs_rel == 0 and m.sq_rel == 0 and m.rmse == 0 and m.rmse_log == 0
        assert m.delta1 == 1 and m.delta2 == 1 and m.delta3 == 1

    def test_single_pixel_factor_two(self):
        m = depth_metrics(dm([[2.0]]), dm([[1.0]]))
        assert m.abs_rel == pytest.approx(1.0)
        assert m.sq_rel == pytest.approx(1.0)
        assert m.rmse == pytest.approx(1.0)
        assert m.rmse_log == pytest.approx(np.log(2.0), abs=1e-6)
        # ratio 2 exceeds 1.25^3 = 1.953125
        assert m.delta1 == 0 and m.delta2 == 0 and m.delta3 == 0

    def test_single_pixel_within_delta1(self):
        m = depth_metrics(dm([[1.2]]), dm([[1.0]]))
        assert m.delta1 == 1 and m.delta2 == 1 and m.delta3 == 1

    def test_delta_symmetric_relative_errors_not(self):
        gt = dm([[2.0]])
        pred = dm([[1.0]])
        fwd = depth_metrics(gt, pred)
        rev = depth_metrics(pred, gt)
        assert fwd.delta1 == rev.delta1 and fwd.delta3 == rev.delta3
        # prediction-denominator convention: |2-1|/1 vs |1-2|/2
        assert fwd.abs_rel == pytest.approx(1.0)
        assert rev.abs_rel == pytest.approx(0.5)

    def test_gt_denominator_flag(self):
        m = depth_metrics(dm([[2.0]]), dm([[1.0]]), gt_denominator=True)
        assert m.abs_rel == pytest.approx(0.5)

    def test_joint_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(1, 50, (8, 8))
        pred = gt * rng.uniform(0.8, 1.2, (8, 8))
        a = depth_metrics(dm(gt), dm(pred))
        b = depth_metrics(dm(3.0 * gt), dm(3.0 * pred))
        assert a.abs_rel == pytest.approx(b.abs_rel, rel=1e-5)
        assert a.sq_rel == pytest.approx(b.sq_rel / 3.0, rel=1e-5)
        assert a.rmse_log == pytest.approx(b.rmse_log, rel=1e-5)
        assert a.delta2 == b.delta2
        assert b.rmse == pytest.approx(3.0 * a.rmse, rel=1e-5)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ValueError):
            depth_metrics(dm([[0.0]]), dm([[1.0]]))


class TestNormalPpf:
    def test_accuracy_against_scipy(self):
        ps = np.concatenate([
            np.linspace(1e-9, 0.02, 41), np.linspace(0.021, 0.979, 200),
            np.linspace(0.98, 1 - 1e-9, 41),
        ])
        worst = max(abs(normal_ppf(float(p)) - ndtri(p)) for p in ps)
        assert worst < 1e-8

    def test_symmetry(self):
        for p in (0.01, 0.3, 0.77):
            assert normal_ppf(p) == pytest.approx(-normal_ppf(1 - p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)


class TestCalibration:
    def test_exact_predictions_full_coverage(self):
        d = dm(np.full((4, 4), 5.0))
        s = UncMap(np.full((4, 4), 1.0, dtype=np.float32), "std")
        curve = calibration_curve(d, d, s, p_grid=np.array([0.1, 0.5, 0.9]))
        np.testing.assert_allclose(curve.coverage, 1.0)

    def test_vanishing_sigma_zero_coverage(self):
        d = dm(np.full((4, 4), 5.0))
        pred = dm(np.full((4, 4), 6.0))
        s = UncMap(np.full((4, 4), 1e-9, dtype=np.float32), "std")
        curve = calibration_curve(d, pred, s, p_grid=np.array([0.1, 0.5, 0.9]))
        np.testing.assert_allclose(curve.coverage, 0.0)

    def test_truthful_gaussian_monte_carlo(self):
        rng = np.random.default_rng(1)
        n = 1000
        gt = rng.uniform(10, 50, (n, n))
        sigma = rng.uniform(0.5, 3.0, (n, n))
        pred = gt + sigma * rng.standard_normal((n, n))
        curve = calibration_curve(
            dm(gt), dm(pred), UncMap(sigma.astype(np.float32), "std"),
            p_grid=np.arange(1, 10) / 10.0,
        )
        np.testing.assert_allclose(curve.coverage, curve.p_grid, atol=0.002)

    def test_coverage_monotone(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(10, 50, (64, 64))
        pred = gt + rng.standard_normal((64, 64))
        s = UncMap(np.full((64, 64), 0.8, dtype=np.float32), "std")
        curve = calibration_curve(dm(gt), dm(pred), s)
        assert (np.diff(curve.coverage) >= 0).all()

    def test_variance_kind_rejected(self):
        d = dm(np.ones((2, 2)))
        with pytest.raises(ValueError):
            calibration_curve(d, d, UncMap(np.ones((2, 2), dtype=np.float32), "variance"))

    def test_mismatched_mask_rejected_like_depth_metrics(self):
        d = dm(np.full((4, 4), 5.0))
        s = UncMap(np.ones((4, 4), dtype=np.float32), "std")
        m = Mask(np.ones((3, 3), dtype=bool))
        for call in (lambda: calibration_curve(d, d, s, m),
                     lambda: depth_metrics(d, d, m),
                     lambda: scale_correction(d, d, m)):
            with pytest.raises(ValueError, match="raster dimensions disagree"):
                call()


class TestAuce:
    def test_perfect_calibration_zero(self):
        p = default_p_grid()
        signed, absolute = auce(CalibrationCurve(p, p.copy()))
        assert signed == pytest.approx(0.0, abs=1e-12)
        assert absolute == pytest.approx(0.0, abs=1e-12)

    def test_maximally_underconfident(self):
        p = default_p_grid()
        signed, absolute = auce(CalibrationCurve(p, np.ones_like(p)))
        assert signed == pytest.approx(-0.5)
        assert absolute == pytest.approx(0.5)

    def test_maximally_overconfident(self):
        p = default_p_grid()
        signed, absolute = auce(CalibrationCurve(p, np.zeros_like(p)))
        assert signed == pytest.approx(0.5)
        assert absolute == pytest.approx(0.5)

    def test_sign_convention_on_shrunk_sigma(self):
        rng = np.random.default_rng(3)
        n = 500
        gt = rng.uniform(10, 50, (n, n))
        sigma = rng.uniform(0.5, 3.0, (n, n))
        pred = gt + sigma * rng.standard_normal((n, n))
        halved = calibration_curve(
            dm(gt), dm(pred), UncMap((0.5 * sigma).astype(np.float32), "std")
        )
        doubled = calibration_curve(
            dm(gt), dm(pred), UncMap((2.0 * sigma).astype(np.float32), "std")
        )
        s_half, _ = auce(halved)
        s_double, _ = auce(doubled)
        assert s_half > 0.1      # overconfident -> positive
        assert s_double < -0.1   # underconfident -> negative

    def test_trapezoid_against_quadrature_oracle(self):
        # smooth synthetic coverage curve integrated by scipy quadrature
        from scipy.integrate import quad

        p = default_p_grid(199)
        cov = p**2
        signed, absolute = auce(CalibrationCurve(p, cov))
        ref_signed = quad(lambda x: x - x**2, 0, 1)[0]
        assert signed == pytest.approx(ref_signed, abs=2e-4)
        assert absolute == pytest.approx(ref_signed, abs=2e-4)
