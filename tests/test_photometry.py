import numpy as np
import pytest

from scopedepth.imagery import Image
from scopedepth.photometry import (
    _ALPHA,
    _C1,
    _C2,
    _box_matrix,
    box_filter,
    edge_weights,
    photometric_residual_arrays,
    photometric_residual_backward,
    smoothness_and_grad,
    ssim_backward_channel,
    ssim_moments,
    ssim_terms,
)


def brute_force_window_stats(a, b, win):
    """Loop oracle: clamped-window means/variances/covariance."""
    h, w = a.shape
    r = win // 2
    mu_a = np.zeros((h, w))
    mu_b = np.zeros((h, w))
    var_a = np.zeros((h, w))
    var_b = np.zeros((h, w))
    cov = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            pa, pb = [], []
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    pa.append(a[ii, jj])
                    pb.append(b[ii, jj])
            pa = np.array(pa)
            pb = np.array(pb)
            mu_a[i, j] = pa.mean()
            mu_b[i, j] = pb.mean()
            var_a[i, j] = (pa**2).mean() - pa.mean() ** 2
            var_b[i, j] = (pb**2).mean() - pb.mean() ** 2
            cov[i, j] = (pa * pb).mean() - pa.mean() * pb.mean()
    return mu_a, mu_b, var_a, var_b, cov


def brute_force_ssim(a, b):
    mu_a, mu_b, var_a, var_b, cov = brute_force_window_stats(a, b, 3)
    return ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / (
        (mu_a**2 + mu_b**2 + _C1) * (var_a + var_b + _C2)
    )


def brute_force_eq4(t: Image, s: Image) -> np.ndarray:
    """Loop oracle of one source's Eq.-4 candidate at the fixed alpha:
    (1 - alpha) * channel-mean L1 + (alpha / 2) * (1 - channel-mean SSIM)."""
    a, b = t.planes(), s.planes()
    l1 = np.abs(a - b).mean(axis=0)
    mean_ssim = np.mean([brute_force_ssim(a[c], b[c]) for c in range(len(a))], axis=0)
    return (1 - _ALPHA) * l1 + 0.5 * _ALPHA * (1 - mean_ssim)


def terms_of(a, b):
    """:func:`ssim_terms` of ``a`` and ``b``, with the moments of ``a``."""
    return ssim_terms(ssim_moments(a), b)


def ssim(a: Image, b: Image) -> np.ndarray:
    """Channel-mean SSIM map of two images."""
    return terms_of(a.planes(), b.planes())[0].mean(axis=0)


def residual(t: Image, sources):
    """(f_p, valid) of target ``t`` against (image, bool mask) sources."""
    tgt = t.planes()
    f_p, valid, _, _ = photometric_residual_arrays(
        ssim_moments(tgt), [(s.planes(), m) for s, m in sources])
    return f_p, valid


def smoothness(d, img: Image) -> np.ndarray:
    return smoothness_and_grad(d, edge_weights(img))[0]


def box_cases(shape):
    """Image shapes for the 3x3 window: ``shape`` (id "3"), then images
    smaller than the window (ids "3-<h>x<w>")."""
    small = [(1, 1), (2, 5)]
    return [pytest.param(shape, id="3")] + [
        pytest.param(s, id=f"3-{s[0]}x{s[1]}") for s in small
    ]


class TestBoxFilter:
    @pytest.mark.parametrize("shape", box_cases((7, 9)))
    def test_matches_brute_force(self, shape):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, shape)
        got = box_filter(x)
        mu, *_ = brute_force_window_stats(x, x, 3)
        np.testing.assert_allclose(got, mu, atol=1e-12)

    @pytest.mark.parametrize("shape", box_cases((8, 11)))
    def test_adjoint_dot_product(self, shape):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=shape)
            g = rng.normal(size=shape)
            lhs = (box_filter(x) * g).sum()
            rhs = (x * box_filter(g)).sum()
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("n", [*range(1, 65), 256])
    def test_axis_matrix_symmetric(self, n):
        # so the filter is its own adjoint
        m = _box_matrix(n)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("n", [3, 16, 64, 256])
    @pytest.mark.parametrize("c", [1, 3])
    def test_equals_forward_layout(self, c, n):
        # the filter evaluates B_h.T @ x @ B_w; at the sizes training uses
        # that is bit for bit the forward layout B_h @ x @ B_w.T
        x = np.random.default_rng(n).uniform(0, 1, (c, n, n))
        b = _box_matrix(n)
        assert box_filter(x).tobytes() == (b @ x @ b.T).tobytes()

    def test_axis_matrix_cached_read_only(self):
        m = _box_matrix(6)
        assert _box_matrix(6) is m
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestChannelStacks:
    @pytest.mark.parametrize("layout", ["contiguous", "moveaxis"])
    def test_stack_equals_per_channel_calls(self, layout):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, (6, 7, 3))
        b = rng.uniform(0, 1, (6, 7, 3))
        up = rng.normal(size=(6, 7))
        sa, sb = np.moveaxis(a, 2, 0), np.moveaxis(b, 2, 0)
        if layout == "contiguous":
            sa, sb = np.ascontiguousarray(sa), np.ascontiguousarray(sb)
        box = box_filter(sb)
        terms = terms_of(sa, sb)
        grad = ssim_backward_channel(terms, up)
        for c in range(3):
            np.testing.assert_array_equal(box[c], box_filter(b[:, :, c]))
            chan = terms_of(a[:, :, c], b[:, :, c])
            for got, want in zip(terms, chan):
                np.testing.assert_array_equal(got[c], want)
            np.testing.assert_array_equal(grad[c], ssim_backward_channel(chan, up))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        img = Image(rng.uniform(0, 1, (6, 8, 3)).astype(np.float32))
        np.testing.assert_allclose(ssim(img, img), 1.0, atol=1e-9)

    def test_constant_images_formula(self):
        a = Image(np.full((5, 5, 1), 0.2, dtype=np.float32))
        b = Image(np.full((5, 5, 1), 0.8, dtype=np.float32))
        # direct formula evaluation: variances vanish, c2 cancels
        expected = (2 * 0.2 * 0.8 + _C1) / (0.2**2 + 0.8**2 + _C1)
        np.testing.assert_allclose(ssim(a, b), expected, atol=1e-6)
        assert expected == pytest.approx(0.4707, abs=2e-4)

    def test_anticorrelated_windows_negative(self):
        # zero-mean alternating pattern around 0.5: b = 1 - a flips the sign
        # of every windowed covariance
        base = 0.5 + 0.3 * ((-1.0) ** np.add.outer(np.arange(6), np.arange(6)))
        a = base.astype(np.float32)
        b = (1.0 - base).astype(np.float32)
        got = ssim(Image(a[..., None]), Image(b[..., None]))
        oracle = brute_force_ssim(
            np.clip(a, 0, 1).astype(np.float64), np.clip(b, 0, 1).astype(np.float64)
        )
        np.testing.assert_allclose(got, oracle, atol=1e-9)
        assert (got[1:-1, 1:-1] < 0).all()

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (7, 7)).astype(np.float32)
        b = rng.uniform(0, 1, (7, 7)).astype(np.float32)
        got = ssim(Image(a[..., None]), Image(b[..., None]))
        oracle = brute_force_ssim(a.astype(np.float64), b.astype(np.float64))
        np.testing.assert_allclose(got, oracle, atol=1e-9)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(4)
        a = Image(rng.uniform(0, 1, (9, 9, 3)).astype(np.float32))
        b = Image(rng.uniform(0, 1, (9, 9, 3)).astype(np.float32))
        ab = ssim(a, b)
        ba = ssim(b, a)
        np.testing.assert_array_equal(ab, ba)
        assert ab.max() <= 1.0 + 1e-12 and ab.min() >= -1.0 - 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, (5, 6))
        b = rng.uniform(0, 1, (5, 6))
        up = rng.normal(size=(5, 6))
        grad = ssim_backward_channel(terms_of(a, b), up)
        eps = 1e-6
        fd = np.zeros_like(b)
        for i in range(5):
            for j in range(6):
                bp = b.copy()
                bp[i, j] += eps
                bm = b.copy()
                bm[i, j] -= eps
                fd[i, j] = (
                    (up * terms_of(a, bp)[0]).sum()
                    - (up * terms_of(a, bm)[0]).sum()
                ) / (2 * eps)
        np.testing.assert_allclose(grad, fd, atol=1e-6)


class TestPhotometricResidual:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(6)
        t = Image(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
        f_p, valid = residual(t, [(t, np.full((6, 6), True))])
        assert valid.all()
        np.testing.assert_allclose(f_p, 0.0, atol=1e-9)

    def test_matches_eq4_at_the_fixed_alpha(self):
        rng = np.random.default_rng(7)
        t = Image(rng.uniform(0, 1, (5, 5, 3)).astype(np.float32))
        s = Image(rng.uniform(0, 1, (5, 5, 3)).astype(np.float32))
        f_p, _ = residual(t, [(s, np.full((5, 5), True))])
        assert _ALPHA == 0.85
        np.testing.assert_allclose(f_p, brute_force_eq4(t, s), atol=1e-12)

    def test_min_over_sources(self):
        t = Image(np.full((4, 4, 1), 0.5, dtype=np.float32))
        near = Image(np.full((4, 4, 1), 0.6, dtype=np.float32))
        far = Image(np.full((4, 4, 1), 0.8, dtype=np.float32))
        f_both, _ = residual(
            t, [(far, np.full((4, 4), True)), (near, np.full((4, 4), True))]
        )
        want = brute_force_eq4(t, near)
        assert (want < brute_force_eq4(t, far)).all()
        np.testing.assert_allclose(f_both, want, atol=1e-12)

    def test_adding_source_never_increases(self):
        rng = np.random.default_rng(8)
        t = Image(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
        s1 = Image(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
        s2 = Image(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
        f1, _ = residual(t, [(s1, np.full((6, 6), True))])
        f12, _ = residual(t, [(s1, np.full((6, 6), True)), (s2, np.full((6, 6), True))])
        assert (f12 <= f1 + 1e-12).all()

    def test_invalid_sources_masked(self):
        t = Image(np.full((4, 4, 1), 0.5, dtype=np.float32))
        s = Image(np.full((4, 4, 1), 0.9, dtype=np.float32))
        half = np.zeros((4, 4), dtype=bool)
        half[:2] = True
        f_p, valid = residual(t, [(s, half)])
        assert valid[:2].all() and not valid[2:].any()

    def test_empty_source_list_rejected(self):
        t = Image(np.zeros((4, 4, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            residual(t, [])


class TestPhotometricResidualBackward:
    def test_matches_central_differences(self):
        """The derivative of one source's Eq.-4 candidate with respect to
        the warped source, against central differences.  A lone source has
        no argmin switch, and every |target - source| is at least 0.05, far
        from the L1 kink at zero."""
        rng = np.random.default_rng(9)
        tgt = rng.uniform(0, 1, (3, 5, 6))
        src = tgt + rng.choice([-1.0, 1.0], tgt.shape) * rng.uniform(0.05, 0.3, tgt.shape)
        up = rng.normal(size=(5, 6))
        valid = np.full((5, 6), True)
        moments = ssim_moments(tgt)

        def weighted_residual(vals):
            return (up * photometric_residual_arrays(moments, [(vals, valid)])[0]).sum()

        terms = photometric_residual_arrays(moments, [(src, valid)])[3][0]
        grad = photometric_residual_backward(terms, up)
        eps = 1e-6
        fd = np.zeros_like(src)
        for idx in np.ndindex(src.shape):
            step = np.zeros_like(src)
            step[idx] = eps
            fd[idx] = (weighted_residual(src + step) - weighted_residual(src - step)) / (2 * eps)
        np.testing.assert_allclose(grad, fd, atol=1e-7)


class TestSmoothness:
    def test_constant_depth_zero(self):
        d = np.full((5, 5), 7.0, dtype=np.float32)
        img = Image(np.random.default_rng(9).uniform(0, 1, (5, 5, 3)).astype(np.float32))
        np.testing.assert_allclose(smoothness(d, img), 0.0)

    def test_unit_step_on_flat_image(self):
        # normalized depth steps by exactly 1 between the two columns
        d = np.array([[2.0, 4.0], [2.0, 4.0]], dtype=np.float32)  # mean 3
        img = Image(np.full((2, 2, 1), 0.5, dtype=np.float32))
        fs = smoothness(d, img)
        assert fs[0, 0] == pytest.approx(2.0 / 3.0)

    def test_image_edge_attenuates(self):
        d = np.array([[2.0, 4.0]], dtype=np.float32)
        flat = Image(np.full((1, 2, 1), 0.5, dtype=np.float32))
        gray = np.array([[0.0, 1.0]], dtype=np.float32)
        edged = Image(gray[..., None])
        fs_flat = smoothness(d, flat)
        fs_edge = smoothness(d, edged)
        assert fs_edge[0, 0] == pytest.approx(fs_flat[0, 0] * np.exp(-1.0))

    def test_invariant_to_depth_rescaling(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(5, 20, (6, 6))
        img = Image(rng.uniform(0, 1, (6, 6, 3)).astype(np.float32))
        a = smoothness(d, img)
        b = smoothness(4.0 * d, img)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_nonpositive_mean_rejected(self):
        img = Image(np.zeros((2, 2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            smoothness(np.zeros((2, 2)), img)

    def test_dimension_mismatch_rejected_by_value_and_gradient(self):
        d = np.full((6, 4), 5.0)
        img = Image(np.zeros((6, 5, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="depth and image dimensions disagree"):
            smoothness_and_grad(d, edge_weights(img))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(5, 15, (5, 6))
        img = Image(rng.uniform(0, 1, (5, 6, 3)).astype(np.float32))
        grad = smoothness_and_grad(d, edge_weights(img))[1]
        eps = 1e-6
        fd = np.zeros_like(d)
        for i in range(5):
            for j in range(6):
                dp = d.copy()
                dp[i, j] += eps
                dm = d.copy()
                dm[i, j] -= eps
                fd[i, j] = (
                    smoothness(dp, img).mean()
                    - smoothness(dm, img).mean()
                ) / (2 * eps)
        np.testing.assert_allclose(grad, fd, atol=1e-7)
