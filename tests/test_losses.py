import numpy as np
import pytest

from scopedepth.losses import (
    LossConfig,
    prior_loss,
    supervised_nll_arrays,
    selfsup_nll_arrays,
)

CFG = LossConfig()


def one_pixel(v):
    return np.array([[v]], dtype=np.float64)


class TestSupervised:
    def test_zero_residual_unit_sigma(self):
        d = np.full((3, 3), 7.0)
        lv = supervised_nll_arrays(d, d, np.ones((3, 3)), np.full((3, 3), True), CFG)
        assert lv.scalar == pytest.approx(0.0)

    def test_unit_residual_unit_sigma(self):
        lv = supervised_nll_arrays(one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
                                   np.array([[True]]), CFG)
        assert lv.scalar == pytest.approx(1.0)

    def test_hand_case_two_two(self):
        lv = supervised_nll_arrays(one_pixel(3.0), one_pixel(1.0), one_pixel(2.0),
                                   np.array([[True]]), CFG)
        assert lv.scalar == pytest.approx(1.0 + np.log(2.0), abs=1e-6)

    def test_sigma_stationary_at_abs_residual(self):
        # x/s + log s is minimized at s = x
        x = 1.7
        vals = []
        for s in (x * 0.9, x, x * 1.1):
            lv = supervised_nll_arrays(one_pixel(x), one_pixel(0.0), one_pixel(s),
                                       np.array([[True]]), CFG)
            vals.append(lv.scalar)
        assert vals[1] < vals[0] and vals[1] < vals[2]

    def test_no_valid_pixels_raises(self):
        with pytest.raises(ValueError):
            supervised_nll_arrays(one_pixel(1.0), one_pixel(1.0), one_pixel(1.0),
                                  np.array([[False]]), CFG)

    def test_masked_pixels_do_not_contribute(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1, 10, (4, 4))
        dh = rng.uniform(1, 10, (4, 4))
        s = rng.uniform(0.5, 2, (4, 4))
        mask = rng.uniform(size=(4, 4)) > 0.4
        lv = supervised_nll_arrays(d, dh, s, mask, CFG)
        d2 = d.copy()
        d2[~mask] = 999.0
        lv2 = supervised_nll_arrays(d2, dh, s, mask, CFG)
        assert lv.scalar == lv2.scalar
        assert lv.grad_depth[~mask].sum() == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(5, 10, (5, 5))
        dh = rng.uniform(5, 10, (5, 5))
        s = rng.uniform(0.5, 2.0, (5, 5))
        valid = rng.uniform(size=(5, 5)) > 0.2
        lv = supervised_nll_arrays(d, dh, s, valid, CFG)
        eps = 1e-6
        for (i, j) in [(0, 0), (2, 3), (4, 4)]:
            dp = dh.copy(); dp[i, j] += eps
            dm = dh.copy(); dm[i, j] -= eps
            fd = (supervised_nll_arrays(d, dp, s, valid, CFG).scalar
                  - supervised_nll_arrays(d, dm, s, valid, CFG).scalar) / (2 * eps)
            assert lv.grad_depth[i, j] == pytest.approx(fd, abs=1e-7)
            sp = s.copy(); sp[i, j] += eps
            sm = s.copy(); sm[i, j] -= eps
            fd = (supervised_nll_arrays(d, dh, sp, valid, CFG).scalar
                  - supervised_nll_arrays(d, dh, sm, valid, CFG).scalar) / (2 * eps)
            assert lv.grad_sigma[i, j] == pytest.approx(fd, abs=1e-7)

    def test_clamped_sigma_has_zero_gradient(self):
        lv = supervised_nll_arrays(one_pixel(2.0), one_pixel(1.0), one_pixel(1e-5),
                                   np.array([[True]]), CFG)
        assert lv.grad_sigma[0, 0] == 0.0
        # loss evaluated at the clamp
        assert lv.scalar == pytest.approx(1.0 / CFG.sigma_min + np.log(CFG.sigma_min))


class TestSelfSup:
    def test_zero_residual(self):
        lv = selfsup_nll_arrays(one_pixel(0.0), one_pixel(1.0), np.array([[True]]), CFG)
        assert lv.scalar == pytest.approx(0.0)

    def test_hand_case(self):
        lv = selfsup_nll_arrays(one_pixel(0.2), one_pixel(0.1), np.array([[True]]), CFG)
        assert lv.scalar == pytest.approx(0.2 / 0.1 + np.log(0.1), abs=1e-9)
        assert lv.scalar == pytest.approx(-0.3026, abs=1e-4)

    def test_optimal_u_equals_residual(self):
        f_p = 0.37
        losses = [
            selfsup_nll_arrays(one_pixel(f_p), one_pixel(u), np.array([[True]]), CFG).scalar
            for u in (f_p * 0.9, f_p, f_p * 1.1)
        ]
        assert losses[1] < losses[0] and losses[1] < losses[2]


class TestUncertainTeacher:
    def test_zero_teacher_variance_equals_supervised_bitwise(self):
        rng = np.random.default_rng(2)
        d_t = rng.uniform(5, 10, (6, 6))
        dh = rng.uniform(5, 10, (6, 6))
        s = rng.uniform(0.3, 2.0, (6, 6))
        valid = np.full((6, 6), True)
        a = supervised_nll_arrays(d_t, dh, s, valid, CFG, sigma_label=np.zeros((6, 6)))
        b = supervised_nll_arrays(d_t, dh, s, valid, CFG)
        assert a.scalar == b.scalar
        assert np.array_equal(a.grad_depth, b.grad_depth)
        assert np.array_equal(a.grad_sigma, b.grad_sigma)

    def test_hand_case_sqrt_two(self):
        lv = supervised_nll_arrays(
            one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
            np.array([[True]]), CFG, sigma_label=one_pixel(1.0),
        )
        expected = 1.0 / np.sqrt(2) + np.log(np.sqrt(2))
        assert lv.scalar == pytest.approx(expected, abs=1e-9)
        assert lv.scalar == pytest.approx(1.0537, abs=1e-4)

    def test_huge_teacher_variance_kills_depth_gradient(self):
        lv = supervised_nll_arrays(
            one_pixel(2.0), one_pixel(1.0), one_pixel(1.0),
            np.array([[True]]), CFG, sigma_label=one_pixel(1e6),
        )
        assert abs(lv.grad_depth[0, 0]) < 1e-5

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        d_t = rng.uniform(5, 10, (4, 4))
        s_t = rng.uniform(0.1, 1.5, (4, 4))
        dh = rng.uniform(5, 10, (4, 4))
        s_a = rng.uniform(0.3, 2.0, (4, 4))
        valid = np.full((4, 4), True)
        lv = supervised_nll_arrays(d_t, dh, s_a, valid, CFG, sigma_label=s_t)
        eps = 1e-6
        for (i, j) in [(0, 1), (3, 2)]:
            sp = s_a.copy(); sp[i, j] += eps
            sm = s_a.copy(); sm[i, j] -= eps
            fd = (supervised_nll_arrays(d_t, dh, sp, valid, CFG, sigma_label=s_t).scalar
                  - supervised_nll_arrays(d_t, dh, sm, valid, CFG, sigma_label=s_t).scalar) / (2 * eps)
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
        a = supervised_nll_arrays(d_t, dh, s, valid, CFG)
        b = supervised_nll_arrays(d_t, dh, s, valid, CFG, sigma_label=np.zeros((4, 4)))
        assert a.scalar == b.scalar

    def test_teacher_equals_prediction_leaves_log_sigma(self):
        dh = np.full((3, 3), 9.0)
        lv = supervised_nll_arrays(dh, dh, np.full((3, 3), 0.5), np.full((3, 3), True), CFG)
        assert lv.scalar == pytest.approx(np.log(0.5))

    def test_small_sigma_blows_up_on_wrong_label(self):
        one = np.array([[True]])
        lv_small = supervised_nll_arrays(one_pixel(10.0), one_pixel(5.0), one_pixel(0.01),
                                         one, CFG)
        lv_large = supervised_nll_arrays(one_pixel(10.0), one_pixel(5.0), one_pixel(5.0),
                                         one, CFG)
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
    base = supervised_nll_arrays(d, dh, s, valid, CFG).scalar
    perm = rng.permutation(16)
    permuted = supervised_nll_arrays(d[:, perm], dh[:, perm], s[:, perm], valid, CFG).scalar
    assert base == pytest.approx(permuted, rel=1e-12)
