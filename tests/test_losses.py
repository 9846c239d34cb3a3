import _reference
import numpy as np
import pytest

from scopedepth.losses import (
    LossConfig,
    l1_nll_arrays,
    pixel_weights,
    prior_loss,
    supervised_nll_arrays,
)

CFG = LossConfig(lambda_u=0.0, weight_decay=0.0)
ONE = pixel_weights(np.array([[True]]))


def one_pixel(v):
    return np.array([[v]], dtype=np.float64)


class TestSupervised:
    def test_zero_residual_unit_sigma(self):
        d = np.full((3, 3), 7.0)
        lv = supervised_nll_arrays(d, d, np.ones((3, 3)), *pixel_weights(np.full((3, 3), True)), CFG)
        assert lv.scalar == pytest.approx(0.0)

    def test_unit_residual_unit_sigma(self):
        lv = supervised_nll_arrays(one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
                                   *ONE, CFG)
        assert lv.scalar == pytest.approx(1.0)

    def test_hand_case_two_two(self):
        lv = supervised_nll_arrays(one_pixel(3.0), one_pixel(1.0), one_pixel(2.0),
                                   *ONE, CFG)
        assert lv.scalar == pytest.approx(1.0 + np.log(2.0), abs=1e-6)

    def test_sigma_stationary_at_abs_residual(self):
        # x/s + log s is minimized at s = x
        x = 1.7
        vals = []
        for s in (x * 0.9, x, x * 1.1):
            lv = supervised_nll_arrays(one_pixel(x), one_pixel(0.0), one_pixel(s),
                                       *ONE, CFG)
            vals.append(lv.scalar)
        assert vals[1] < vals[0] and vals[1] < vals[2]

    def test_no_valid_pixels_raises(self):
        with pytest.raises(ValueError, match="no valid pixels"):
            pixel_weights(np.array([[False]]))

    def test_masked_pixels_do_not_contribute(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1, 10, (4, 4))
        dh = rng.uniform(1, 10, (4, 4))
        s = rng.uniform(0.5, 2, (4, 4))
        mask = rng.uniform(size=(4, 4)) > 0.4
        lv = supervised_nll_arrays(d, dh, s, *pixel_weights(mask), CFG)
        d2 = d.copy()
        d2[~mask] = 999.0
        lv2 = supervised_nll_arrays(d2, dh, s, *pixel_weights(mask), CFG)
        assert lv.scalar == lv2.scalar
        assert lv.grad_depth[~mask].sum() == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(5, 10, (5, 5))
        dh = rng.uniform(5, 10, (5, 5))
        s = rng.uniform(0.5, 2.0, (5, 5))
        valid = rng.uniform(size=(5, 5)) > 0.2
        lv = supervised_nll_arrays(d, dh, s, *pixel_weights(valid), CFG)
        eps = 1e-6
        for (i, j) in [(0, 0), (2, 3), (4, 4)]:
            dp = dh.copy(); dp[i, j] += eps
            dm = dh.copy(); dm[i, j] -= eps
            fd = (supervised_nll_arrays(d, dp, s, *pixel_weights(valid), CFG).scalar
                  - supervised_nll_arrays(d, dm, s, *pixel_weights(valid), CFG).scalar) / (2 * eps)
            assert lv.grad_depth[i, j] == pytest.approx(fd, abs=1e-7)
            sp = s.copy(); sp[i, j] += eps
            sm = s.copy(); sm[i, j] -= eps
            fd = (supervised_nll_arrays(d, dh, sp, *pixel_weights(valid), CFG).scalar
                  - supervised_nll_arrays(d, dh, sm, *pixel_weights(valid), CFG).scalar) / (2 * eps)
            assert lv.grad_sigma[i, j] == pytest.approx(fd, abs=1e-7)

    def test_clamped_sigma_has_zero_gradient(self):
        lv = supervised_nll_arrays(one_pixel(2.0), one_pixel(1.0), one_pixel(1e-5),
                                   *ONE, CFG)
        assert lv.grad_sigma[0, 0] == 0.0
        # loss evaluated at the clamp
        assert lv.scalar == pytest.approx(1.0 / CFG.sigma_min + np.log(CFG.sigma_min))


class TestSelfSup:
    """The kernel on a photometric error, as the self-supervised step calls it."""

    def test_zero_residual(self):
        lv = l1_nll_arrays(one_pixel(0.0), one_pixel(1.0), *ONE, CFG)
        assert lv.scalar == pytest.approx(0.0)

    def test_hand_case(self):
        lv = l1_nll_arrays(one_pixel(0.2), one_pixel(0.1), *ONE, CFG)
        assert lv.scalar == pytest.approx(0.2 / 0.1 + np.log(0.1), abs=1e-9)
        assert lv.scalar == pytest.approx(-0.3026, abs=1e-4)

    def test_optimal_u_equals_residual(self):
        f_p = 0.37
        losses = [
            l1_nll_arrays(one_pixel(f_p), one_pixel(u), *ONE, CFG).scalar
            for u in (f_p * 0.9, f_p, f_p * 1.1)
        ]
        assert losses[1] < losses[0] and losses[1] < losses[2]


class TestUncertainTeacher:
    def test_zero_teacher_variance_equals_supervised_bitwise(self):
        # sqrt(0 + x * x) == x for every scale the clamp lets through: the
        # clamp itself, and sigma_min up to 1e4
        rng = np.random.default_rng(2)
        s = np.geomspace(CFG.sigma_min, 1e4, 64 * 64).reshape(64, 64)
        s[0, :8] = CFG.sigma_min / 10
        d_t = rng.uniform(5, 10, s.shape)
        dh = rng.uniform(5, 10, s.shape)
        weights = pixel_weights(rng.uniform(size=s.shape) < 0.8)
        a = supervised_nll_arrays(d_t, dh, s, *weights, CFG, var_label=np.zeros(s.shape))
        b = supervised_nll_arrays(d_t, dh, s, *weights, CFG)
        assert a.scalar == b.scalar
        assert np.array_equal(a.grad_depth, b.grad_depth)
        assert np.array_equal(a.grad_sigma, b.grad_sigma)

    def test_hand_case_sqrt_two(self):
        lv = supervised_nll_arrays(
            one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
            *ONE, CFG, var_label=one_pixel(1.0),
        )
        expected = 1.0 / np.sqrt(2) + np.log(np.sqrt(2))
        assert lv.scalar == pytest.approx(expected, abs=1e-9)
        assert lv.scalar == pytest.approx(1.0537, abs=1e-4)

    def test_huge_teacher_variance_kills_depth_gradient(self):
        lv = supervised_nll_arrays(
            one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
            *ONE, CFG, var_label=one_pixel(1e12),
        )
        assert abs(lv.grad_depth[0, 0]) < 1e-5

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        d_t = rng.uniform(5, 10, (4, 4))
        s_t = rng.uniform(0.1, 1.5, (4, 4))
        dh = rng.uniform(5, 10, (4, 4))
        s_a = rng.uniform(0.3, 2.0, (4, 4))
        valid = np.full((4, 4), True)
        lv = supervised_nll_arrays(d_t, dh, s_a, *pixel_weights(valid), CFG, var_label=s_t**2)
        eps = 1e-6
        for (i, j) in [(0, 1), (3, 2)]:
            sp = s_a.copy(); sp[i, j] += eps
            sm = s_a.copy(); sm[i, j] -= eps
            fd = (supervised_nll_arrays(d_t, dh, sp, *pixel_weights(valid), CFG, var_label=s_t**2).scalar
                  - supervised_nll_arrays(d_t, dh, sm, *pixel_weights(valid), CFG, var_label=s_t**2).scalar) / (2 * eps)
            assert lv.grad_sigma[i, j] == pytest.approx(fd, abs=1e-8)


class TestPlainStudent:
    """The plain-student regime is the supervised loss on teacher depth."""

    def test_equals_uncertain_with_zero_teacher_sigma(self):
        rng = np.random.default_rng(4)
        # float32 values, as the rasters store them
        d_t = rng.uniform(5, 10, (4, 4)).astype(np.float32).astype(np.float64)
        dh = rng.uniform(5, 10, (4, 4)).astype(np.float32).astype(np.float64)
        s = rng.uniform(0.3, 2.0, (4, 4)).astype(np.float32).astype(np.float64)
        valid = np.full((4, 4), True)
        a = supervised_nll_arrays(d_t, dh, s, *pixel_weights(valid), CFG)
        b = supervised_nll_arrays(d_t, dh, s, *pixel_weights(valid), CFG, var_label=np.zeros((4, 4)))
        assert a.scalar == b.scalar

    def test_teacher_equals_prediction_leaves_log_sigma(self):
        dh = np.full((3, 3), 9.0)
        lv = supervised_nll_arrays(dh, dh, np.full((3, 3), 0.5), *pixel_weights(np.full((3, 3), True)), CFG)
        assert lv.scalar == pytest.approx(np.log(0.5))

    def test_small_sigma_blows_up_on_wrong_label(self):
        lv_small = supervised_nll_arrays(one_pixel(10.0), one_pixel(5.0), one_pixel(0.01),
                                         *ONE, CFG)
        lv_large = supervised_nll_arrays(one_pixel(10.0), one_pixel(5.0), one_pixel(5.0),
                                         *ONE, CFG)
        assert lv_small.scalar > 100 * lv_large.scalar


class TestPrior:
    def test_zero_vector(self):
        loss, grad = prior_loss(np.zeros(5), LossConfig(weight_decay=1.0))
        assert loss == 0.0 and not grad.any()

    def test_three_four_case(self):
        loss, grad = prior_loss(np.array([3.0, 4.0]), LossConfig(weight_decay=1.0))
        assert loss == pytest.approx(25.0)
        np.testing.assert_allclose(grad, [6.0, 8.0])

    def test_zero_decay_is_mle(self):
        loss, grad = prior_loss(np.array([3.0, 4.0]), LossConfig(weight_decay=0.0))
        assert loss == 0.0 and not grad.any()


def test_losses_are_permutation_invariant():
    rng = np.random.default_rng(5)
    d = rng.uniform(5, 10, (1, 16))
    dh = rng.uniform(5, 10, (1, 16))
    s = rng.uniform(0.5, 2.0, (1, 16))
    valid = np.full((1, 16), True)
    base = supervised_nll_arrays(d, dh, s, *pixel_weights(valid), CFG).scalar
    perm = rng.permutation(16)
    permuted = supervised_nll_arrays(d[:, perm], dh[:, perm], s[:, perm], *pixel_weights(valid), CFG).scalar
    assert base == pytest.approx(permuted, rel=1e-12)


class TestAgainstReference:
    """The likelihoods against the ones they replaced, which mask with
    ``np.where``, take the label scale from ``np.hypot`` and write the
    photometric likelihood apart from the label one, on random masked
    inputs (256x256 unless a test says otherwise)."""

    @staticmethod
    def _inputs(seed, size=256):
        rng = np.random.default_rng(seed)
        shape = (size, size)
        d = rng.uniform(5, 60, shape)
        d_hat = rng.uniform(5, 60, shape)
        # scales below the clamp, around the residuals and far above them
        sigma_a = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), shape))
        valid = rng.uniform(size=shape) < 0.7
        # the teacher's std as the rasters store it, in float32
        s_t = rng.uniform(0.05, 5.0, shape).astype(np.float32).astype(np.float64)
        return d, d_hat, sigma_a, valid, s_t

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_without_label_std_bitwise(self, seed):
        d, d_hat, sigma_a, valid, _ = self._inputs(seed)
        ref = _reference.supervised_nll_arrays(d, d_hat, sigma_a, valid, CFG)
        new = supervised_nll_arrays(d, d_hat, sigma_a, *pixel_weights(valid), CFG)
        assert new.scalar == ref.scalar
        assert np.array_equal(new.grad_depth, ref.grad_depth)
        assert np.array_equal(new.grad_sigma, ref.grad_sigma)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_with_label_std_within_ulps(self, seed):
        d, d_hat, sigma_a, valid, s_t = self._inputs(seed)
        s_a = np.maximum(sigma_a, CFG.sigma_min)
        # the scales: sqrt(s_t^2 + s_a^2) and hypot(s_t, s_a) are both
        # within 1 ulp of the true value, so within 1 ulp of each other
        scale, ref_scale = np.sqrt(s_t**2 + s_a**2), np.hypot(s_t, s_a)
        np.testing.assert_array_max_ulp(scale, ref_scale, maxulp=1)
        assert 0.05 < (scale != ref_scale).mean() < 0.5
        ref = _reference.supervised_nll_arrays(d, d_hat, sigma_a, valid, CFG, s_t)
        new = supervised_nll_arrays(d, d_hat, sigma_a, *pixel_weights(valid), CFG,
                                    var_label=s_t**2)
        # a 1-ulp change of the scale moves each output by a few ulps of its
        # own magnitude: the mean by at most 4 ulps, the maps by at most 8
        # ulps of their largest entry, since d_s cancels where s is near |r|
        # (these inputs give 0 and up to 4)
        assert abs(new.scalar - ref.scalar) <= 4 * np.spacing(abs(ref.scalar))
        for got, want in ((new.grad_depth, ref.grad_depth), (new.grad_sigma, ref.grad_sigma)):
            assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max())
            assert np.array_equal(got[~valid], want[~valid])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [64, 256])
    def test_kernel_on_photometric_error_bitwise(self, size, seed):
        d, d_hat, u_hat, valid, _ = self._inputs(seed, size)
        # an Eq.-4 error is non-negative and of order 0.1
        f_p = np.abs(d - d_hat) / 500.0
        ref = _reference.selfsup_nll_arrays(f_p, u_hat, valid, CFG)
        new = l1_nll_arrays(f_p, u_hat, *pixel_weights(valid), CFG)
        assert new.scalar == ref.scalar
        assert new.grad_depth.tobytes() == ref.grad_depth.tobytes()
        assert new.grad_sigma.tobytes() == ref.grad_sigma.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("label_std", ["none", "zero", "teacher"])
    def test_kernel_on_depth_error(self, label_std, size, seed):
        """The kernel on |d - d_hat|, signed by -sign(d - d_hat), is the
        reference label likelihood: bitwise, signed zeros included, without
        a label variance or with a zero one, and within the ulps of
        ``np.hypot`` otherwise."""
        d, d_hat, sigma_a, valid, s_t = self._inputs(seed, size)
        d_hat[:2] = d[:2]  # zero residuals, whose subgradient is a signed zero
        s_t = {"none": None, "zero": np.zeros_like(s_t), "teacher": s_t}[label_std]
        r = d - d_hat
        ref = _reference.supervised_nll_arrays(d, d_hat, sigma_a, valid, CFG, s_t)
        new = l1_nll_arrays(np.abs(r), sigma_a, *pixel_weights(valid), CFG,
                            None if s_t is None else s_t**2)
        got = (new.scalar, -np.sign(r) * new.grad_depth, new.grad_sigma)
        want = (ref.scalar, ref.grad_depth, ref.grad_sigma)
        if label_std != "teacher":
            assert got[0] == want[0]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))
            return
        # the bounds of test_with_label_std_within_ulps
        assert abs(got[0] - want[0]) <= 4 * np.spacing(abs(want[0]))
        for g, w in zip(got[1:], want[1:]):
            assert np.abs(g - w).max() <= 8 * np.spacing(np.abs(w).max())
            assert np.array_equal(g[~valid], w[~valid])
