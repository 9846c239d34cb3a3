import numpy as np
import pytest
from _reference import bilinear_sample, bilinear_sample_map, warp_coordinates

from scopedepth.geometry import CameraIntrinsics, Pose
from scopedepth.imagery import (
    DepthMap,
    Image,
    PfmParseError,
    PpmParseError,
    UncMap,
    bilinear_sample_planes,
    read_pfm,
    read_ppm,
    write_pfm,
    write_ppm,
)


class TestContainers:
    def test_image_clamps_to_unit_range(self):
        img = Image(np.array([[[1.5, -0.25, 0.5]]], dtype=np.float32))
        assert img.data.max() <= 1.0 and img.data.min() >= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Image(np.array([[[np.nan]]], dtype=np.float32))
        with pytest.raises(ValueError):
            DepthMap(np.array([[np.inf]], dtype=np.float32))
        with pytest.raises(ValueError):
            UncMap(np.array([[np.nan]], dtype=np.float32))

    def test_uncmap_rejects_negative(self):
        with pytest.raises(ValueError):
            UncMap(np.array([[-1.0]], dtype=np.float32))

    def test_containers_immutable(self):
        d = DepthMap(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            d.data[0, 0] = 5.0


class TestBilinear:
    def test_exact_at_integer_nodes(self):
        rng = np.random.default_rng(0)
        img = Image(rng.uniform(0, 1, (5, 7, 3)).astype(np.float32))
        for x in range(7):
            for y in range(5):
                v, ok = bilinear_sample(img, float(x), float(y))
                assert ok
                np.testing.assert_allclose(v, img.data[y, x], rtol=1e-7)

    def test_midpoint_linearity(self):
        img = Image(np.array([[[0.0], [1.0]]], dtype=np.float32))
        v, ok = bilinear_sample(img, 0.5, 0.0)
        assert ok and v[0] == pytest.approx(0.5)

    def test_out_of_bounds_flagged(self):
        img = Image(np.zeros((4, 4, 1), dtype=np.float32))
        for x, y in [(-0.6, 0.0), (0.0, -0.01), (3.01, 0.0), (0.0, 3.5)]:
            _, ok = bilinear_sample(img, x, y)
            assert not ok

    def test_convexity_within_neighbors(self):
        rng = np.random.default_rng(1)
        img = Image(rng.uniform(0, 1, (6, 6, 1)).astype(np.float32))
        for _ in range(300):
            x = rng.uniform(0, 5)
            y = rng.uniform(0, 5)
            v, ok = bilinear_sample(img, x, y)
            assert ok
            x0, y0 = int(np.floor(min(x, 4))), int(np.floor(min(y, 4)))
            block = img.data[y0 : y0 + 2, x0 : x0 + 2, 0]
            assert block.min() - 1e-7 <= v[0] <= block.max() + 1e-7

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        img = Image(rng.uniform(0, 1, (5, 6, 3)).astype(np.float32))
        xs = rng.uniform(-1, 7, (4, 4))
        ys = rng.uniform(-1, 6, (4, 4))
        vals, _, _, valid = bilinear_sample_planes(img.planes(), xs, ys)
        for i in range(4):
            for j in range(4):
                v, ok = bilinear_sample(img, xs[i, j], ys[i, j])
                assert ok == valid[i, j]
                np.testing.assert_allclose(vals[:, i, j], v)

    def test_map_derivatives_match_central_differences(self):
        # probes stay inside one bilinear cell, where the interpolant is
        # linear along each axis
        rng = np.random.default_rng(3)
        img = Image(rng.uniform(0, 1, (5, 6, 3)).astype(np.float32))
        xs = rng.integers(0, 5, (4, 4)) + rng.uniform(0.2, 0.8, (4, 4))
        ys = rng.integers(0, 4, (4, 4)) + rng.uniform(0.2, 0.8, (4, 4))
        planes = img.planes()
        _, ddx, ddy, valid = bilinear_sample_planes(planes, xs, ys)
        assert valid.all()
        eps = 1e-6
        fd_x = (bilinear_sample_planes(planes, xs + eps, ys)[0]
                - bilinear_sample_planes(planes, xs - eps, ys)[0]) / (2 * eps)
        fd_y = (bilinear_sample_planes(planes, xs, ys + eps)[0]
                - bilinear_sample_planes(planes, xs, ys - eps)[0]) / (2 * eps)
        np.testing.assert_allclose(ddx, fd_x, atol=1e-8)
        np.testing.assert_allclose(ddy, fd_y, atol=1e-8)

    def test_map_invalid_lookups_are_zero(self):
        img = Image(np.ones((4, 4, 1), dtype=np.float32))
        xs = np.array([[-0.5, 1.5], [3.5, 1.5]])
        ys = np.array([[1.5, -0.1], [1.5, 1.5]])
        vals, ddx, ddy, valid = bilinear_sample_planes(img.planes(), xs, ys)
        np.testing.assert_array_equal(valid, [[False, False], [False, True]])
        for arr in (vals, ddx, ddy):
            assert not arr[:, ~valid].any()


def _edge_coordinates(n: int) -> np.ndarray:
    """Coordinates along an axis of ``n`` pixels: exactly 0 and n - 1, one
    ulp inside and outside each, a sample inside, and the non-finite ones."""
    top = float(n - 1)
    return np.array([0.0, -0.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0), -1e-9,
                     top, np.nextafter(top, 0.0), np.nextafter(top, np.inf), top + 1e-9,
                     0.5 * top, np.nan, np.inf, -np.inf])


class TestPlanesMatchReferenceBytes:
    """The gather sampler reproduces the (h, w, c) reference sampler's
    values, derivatives and validity byte for byte."""

    @staticmethod
    def assert_same_bytes(img: Image, xs: np.ndarray, ys: np.ndarray) -> None:
        got = bilinear_sample_planes(img.planes(), xs, ys)
        want = bilinear_sample_map(img, xs, ys)
        for g, r in zip(got[:3], want[:3]):
            assert g.tobytes() == np.ascontiguousarray(np.moveaxis(r, -1, 0)).tobytes()
        assert got[3].tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("h, w", [(1, 7), (7, 1), (1, 1), (2, 2), (5, 6)])
    def test_edges_and_non_finite_coordinates(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        img = Image(rng.uniform(0, 1, (h, w, 3)).astype(np.float32))
        # every pairing of the x and y edge coordinates
        xs, ys = np.meshgrid(_edge_coordinates(w), _edge_coordinates(h))
        self.assert_same_bytes(img, xs, ys)

    def test_64px_warp(self):
        rng = np.random.default_rng(64)
        img = Image(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
        K = CameraIntrinsics(48.0, 48.0, 31.5, 31.5)
        c, s = np.cos(0.05), np.sin(0.05)
        pose = Pose(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
                    np.array([1.5, -0.5, 2.0]))
        depth = rng.uniform(15.0, 40.0, (64, 64))
        xs, ys, _, _, _ = warp_coordinates(depth, K, pose)
        valid = (xs >= 0) & (xs <= 63) & (ys >= 0) & (ys <= 63)
        assert 0.5 < valid.mean() < 1.0
        self.assert_same_bytes(img, xs, ys)


class TestPfm:
    def test_roundtrip_bit_exact(self, tmp_path):
        d = DepthMap(np.array([[1.0, 2.5], [3.25, 4.0]], dtype=np.float32))
        write_pfm(d, tmp_path / "m.pfm")
        back = read_pfm(tmp_path / "m.pfm")
        assert isinstance(back, DepthMap)
        assert back.data.tobytes() == d.data.tobytes()

    def test_random_roundtrip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.uniform(-1e30, 1e30, (17, 9)).astype(np.float32)
        d = DepthMap(arr)
        write_pfm(d, tmp_path / "r.pfm")
        assert read_pfm(tmp_path / "r.pfm").data.tobytes() == arr.tobytes()

    def test_three_channel_pf_rejected(self, tmp_path):
        # only single-channel "Pf" maps are read or written
        payload = np.zeros((3, 4, 3), dtype="<f4").tobytes()
        (tmp_path / "c.pfm").write_bytes(b"PF\n4 3\n-1.0\n" + payload)
        with pytest.raises(PfmParseError, match="b'PF'") as raised:
            read_pfm(tmp_path / "c.pfm")
        assert str(raised.value).startswith(f"{tmp_path / 'c.pfm'}: ")
        with pytest.raises(TypeError):
            write_pfm(Image(np.zeros((3, 4, 3), dtype=np.float32)), tmp_path / "c.pfm")

    def test_truncated_payload(self, tmp_path):
        d = DepthMap(np.ones((4, 4), dtype=np.float32))
        write_pfm(d, tmp_path / "t.pfm")
        blob = (tmp_path / "t.pfm").read_bytes()
        (tmp_path / "t.pfm").write_bytes(blob[:-8])
        with pytest.raises(PfmParseError, match="unexpected end of data"):
            read_pfm(tmp_path / "t.pfm")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.pfm").write_bytes(b"P5\n2 2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(PfmParseError):
            read_pfm(tmp_path / "bad.pfm")

    def test_dimension_overflow(self, tmp_path):
        (tmp_path / "huge.pfm").write_bytes(b"Pf\n99999999 99999999\n-1.0\n")
        with pytest.raises(PfmParseError):
            read_pfm(tmp_path / "huge.pfm")

    def test_non_finite_payload_rejected(self, tmp_path):
        payload = np.array([[np.inf]], dtype="<f4")
        (tmp_path / "inf.pfm").write_bytes(b"Pf\n1 1\n-1.0\n" + payload.tobytes())
        with pytest.raises(PfmParseError, match="non-finite"):
            read_pfm(tmp_path / "inf.pfm")


class TestPpm:
    def test_quantization_roundtrip(self, tmp_path):
        # values on the 1/255 lattice survive a write/read cycle exactly
        arr = (np.arange(12).reshape(2, 2, 3) * 17 % 256).astype(np.float32) / 255.0
        img = Image(arr)
        write_ppm(img, tmp_path / "q.ppm")
        back = read_ppm(tmp_path / "q.ppm")
        assert np.array_equal(back.data, img.data)

    def test_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(5)
        img = Image(rng.uniform(0, 1, (8, 8, 3)).astype(np.float32))
        write_ppm(img, tmp_path / "e.ppm")
        back = read_ppm(tmp_path / "e.ppm")
        assert np.abs(back.data - img.data).max() <= 0.5 / 255 + 1e-6

    def test_gray_written_as_rgb(self, tmp_path):
        img = Image(np.full((2, 2, 1), 0.25, dtype=np.float32))
        write_ppm(img, tmp_path / "g.ppm")
        back = read_ppm(tmp_path / "g.ppm")
        assert back.data.shape[2] == 3
        assert np.allclose(back.data, np.round(0.25 * 255) / 255)

    def test_empty_or_blank_file_is_a_ppm_error(self, tmp_path):
        for payload in (b"", b" \n\t "):
            path = tmp_path / "empty.ppm"
            path.write_bytes(payload)
            with pytest.raises(PpmParseError, match="unexpected end of data"):
                read_ppm(path)
