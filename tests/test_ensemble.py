import shutil

import numpy as np
import pytest

from scopedepth.ensemble import (
    fuse,
    fuse_arrays,
    load_ensemble,
    save_ensemble,
    selfsup_fuse,
)
from scopedepth.imagery import DepthMap, UncMap


def member(depth_value, sigma_value, shape=(2, 2)):
    return (
        DepthMap(np.full(shape, depth_value, dtype=np.float32)),
        UncMap(np.full(shape, sigma_value, dtype=np.float32), "std"),
    )


def brute_force_fuse(depths, sigmas):
    """Two-pass loop oracle over float64 inputs."""
    M = len(depths)
    h, w = depths[0].shape
    d_hat = np.zeros((h, w))
    var_a = np.zeros((h, w))
    var_e = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            mean = sum(float(d[i, j]) for d in depths) / M
            d_hat[i, j] = mean
            var_a[i, j] = sum(float(s[i, j]) ** 2 for s in sigmas) / M
            var_e[i, j] = sum((mean - float(d[i, j])) ** 2 for d in depths) / M
    return d_hat, var_a, var_e, var_a + var_e


class TestFuse:
    def test_single_member_degenerate(self):
        d, s = member(5.0, 0.7)
        out = fuse([(d, s)])
        np.testing.assert_allclose(out.d_hat.data, 5.0)
        np.testing.assert_allclose(out.var_e.data, 0.0)
        np.testing.assert_allclose(out.var_t.data, 0.7**2, rtol=1e-6)

    def test_two_members_hand_case(self):
        out = fuse([member(1.0, 0.0), member(3.0, 0.0)])
        np.testing.assert_allclose(out.d_hat.data, 2.0)
        np.testing.assert_allclose(out.var_e.data, 1.0)

    def test_three_members_hand_case(self):
        out = fuse([member(1.0, 1.0), member(2.0, 1.0), member(3.0, 2.0)])
        np.testing.assert_allclose(out.d_hat.data, 2.0)
        np.testing.assert_allclose(out.var_e.data, 2.0 / 3.0, rtol=1e-6)
        np.testing.assert_allclose(out.var_a.data, 2.0, rtol=1e-6)
        np.testing.assert_allclose(out.var_t.data, 8.0 / 3.0, rtol=1e-6)

    def test_total_variance_identity_exact_in_storage(self):
        rng = np.random.default_rng(0)
        members = [
            (
                DepthMap(rng.uniform(1, 50, (6, 6)).astype(np.float32)),
                UncMap(rng.uniform(0, 3, (6, 6)).astype(np.float32), "std"),
            )
            for _ in range(7)
        ]
        out = fuse(members)
        assert np.array_equal(out.var_t.data, out.var_a.data + out.var_e.data)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        depths = [rng.uniform(1, 40, (3, 4)).astype(np.float32) for _ in range(5)]
        sigmas = [rng.uniform(0, 2, (3, 4)).astype(np.float32) for _ in range(5)]
        got = fuse_arrays(list(depths), list(sigmas))
        want = brute_force_fuse(depths, sigmas)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12)

    def test_permutation_invariant_with_seeds(self):
        rng = np.random.default_rng(2)
        members = [
            (
                DepthMap(rng.uniform(1, 40, (4, 4)).astype(np.float32)),
                UncMap(rng.uniform(0, 2, (4, 4)).astype(np.float32), "std"),
            )
            for _ in range(4)
        ]
        seeds = [11, 7, 29, 3]
        a = fuse(members, seeds)
        order = [2, 0, 3, 1]
        b = fuse([members[i] for i in order], [seeds[i] for i in order])
        assert np.array_equal(a.d_hat.data, b.d_hat.data)
        assert np.array_equal(a.var_t.data, b.var_t.data)

    def test_sigma_t_is_std_of_total_variance(self):
        rng = np.random.default_rng(5)
        members = [(DepthMap(rng.uniform(1, 40, (3, 5)).astype(np.float32)),
                    UncMap(rng.uniform(0, 2, (3, 5)).astype(np.float32), "std"))
                   for _ in range(3)]
        out = fuse(members)
        sigma = out.sigma_t()
        assert sigma.kind == "std"
        want = np.sqrt(out.var_t.data.astype(np.float64)).astype(np.float32)
        assert sigma.data.tobytes() == want.tobytes()

    def test_duplicated_member_equals_single(self):
        d, s = member(9.0, 0.4)
        one = fuse([(d, s)])
        many = fuse([(d, s)] * 6)
        assert np.array_equal(one.d_hat.data, many.d_hat.data)
        assert np.array_equal(one.var_t.data, many.var_t.data)

    def test_epistemic_zero_iff_members_agree(self):
        d, s = member(9.0, 0.4)
        out = fuse([(d, s), (d, s)])
        assert not out.var_e.data.any()
        out2 = fuse([member(9.0, 0.4), member(9.1, 0.4)])
        assert (out2.var_e.data > 0).all()

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValueError):
            fuse([])
        with pytest.raises(ValueError):
            fuse([member(1.0, 1.0, (2, 2)), member(1.0, 1.0, (3, 3))])


class TestSelfsupFuse:
    def test_identical_members_zero_variance(self):
        d = DepthMap(np.full((3, 3), 4.0, dtype=np.float32))
        out = selfsup_fuse([d, d, d])
        assert not out.var_t.data.any()
        assert not out.var_a.data.any()

    def test_two_member_hand_case(self):
        out = selfsup_fuse(
            [DepthMap(np.full((2, 2), 2.0, dtype=np.float32)),
             DepthMap(np.full((2, 2), 4.0, dtype=np.float32))]
        )
        np.testing.assert_allclose(out.d_hat.data, 3.0)
        np.testing.assert_allclose(out.var_t.data, 1.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        ds = [DepthMap(rng.uniform(1, 9, (3, 3)).astype(np.float32)) for _ in range(3)]
        a = selfsup_fuse(ds, [5, 1, 9])
        b = selfsup_fuse([ds[1], ds[2], ds[0]], [1, 9, 5])
        assert np.array_equal(a.d_hat.data, b.d_hat.data)


class TestPersistence:
    def test_pfm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        members = [
            (
                DepthMap(rng.uniform(1, 40, (5, 7)).astype(np.float32)),
                UncMap(rng.uniform(0, 2, (5, 7)).astype(np.float32), "std"),
            )
            for _ in range(3)
        ]
        out = fuse(members, seeds=[3, 1, 2])
        save_ensemble(out, tmp_path / "ens")
        names = {p.name for p in (tmp_path / "ens").iterdir()}
        assert names == {
            "depth_mean.pfm", "var_aleatoric.pfm", "var_epistemic.pfm", "var_total.pfm",
        }
        # a directory fused before the maps stood alone also holds a sidecar
        # of member count and seeds, which loading ignores
        old = tmp_path / "old"
        shutil.copytree(tmp_path / "ens", old)
        (old / "ensemble.json").write_text('{"members": 3, "seeds": [1, 2, 3]}')
        for directory in (tmp_path / "ens", old):
            back = load_ensemble(directory)
            for got, want in zip((back.d_hat, back.var_a, back.var_e, back.var_t),
                                 (out.d_hat, out.var_a, out.var_e, out.var_t)):
                assert got.data.tobytes() == want.data.tobytes()
            assert back.var_a.kind == back.var_e.kind == back.var_t.kind == "variance"
