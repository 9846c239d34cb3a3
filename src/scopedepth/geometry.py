"""Pinhole camera model, SE(3) poses, and depth-based inverse warping.

Camera convention: right-handed, z forward, x right, y down.  Pixel centers
sit at integer coordinates: the optical axis of a camera with principal
point (cx, cy) pierces pixel (cx, cy) exactly.  A pose maps points between
frames as ``p_dst = R @ p_src + t`` with translations in millimetres.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .imagery import DepthMap, Image, Mask, bilinear_sample_map, same_shape

EPS_Z = 1e-6  # near-plane cutoff, mm


class BehindCameraError(ValueError):
    """Projection of a point at or behind the camera plane."""


class InvalidDepthError(ValueError):
    """Back-projection with non-positive depth."""


@dataclass(frozen=True, eq=False)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def to_json(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @staticmethod
    def from_json(d: dict) -> "CameraIntrinsics":
        return CameraIntrinsics(d["fx"], d["fy"], d["cx"], d["cy"])


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation (3x3, det +1) plus translation (3,), mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation has negative determinant")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """self after other: compose(self, other)(p) = self(other(p))."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -Rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def to_json(self) -> dict:
        return {
            "R": [float(v) for v in self.rotation.reshape(-1)],
            "t": [float(v) for v in self.translation],
        }

    @staticmethod
    def from_json(d: dict) -> "Pose":
        return Pose(np.array(d["R"]).reshape(3, 3), np.array(d["t"]))

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1)
            f.write("\n")

    @staticmethod
    def load(path) -> "Pose":
        with open(path) as f:
            return Pose.from_json(json.load(f))


def rotation_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix Rz @ Ry @ Rx from Euler angles in radians."""
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


def relative_pose(target_c2w: Pose, source_c2w: Pose) -> Pose:
    """Transform taking target-camera coordinates to source-camera ones."""
    return source_c2w.inverse().compose(target_c2w)


def project(K: CameraIntrinsics, P) -> tuple[float, float]:
    """Project camera-frame point P (mm) to continuous pixel coordinates."""
    P = np.asarray(P, dtype=np.float64)
    if P[2] <= EPS_Z:
        raise BehindCameraError(f"point z={P[2]} behind near plane")
    return (K.fx * P[0] / P[2] + K.cx, K.fy * P[1] / P[2] + K.cy)


def backproject(K: CameraIntrinsics, j, d: float) -> np.ndarray:
    """Lift pixel j=(x, y) at depth d (mm) to a camera-frame 3D point."""
    if d <= 0:
        raise InvalidDepthError(f"depth {d} must be positive")
    x, y = float(j[0]), float(j[1])
    return np.array([(x - K.cx) * d / K.fx, (y - K.cy) * d / K.fy, d])


def warp_pixel(
    j, d: float, K: CameraIntrinsics, pose: Pose, width: int | None = None,
    height: int | None = None,
) -> tuple[tuple[float, float], bool]:
    """Reproject target pixel j with depth d into the source view.

    Returns ((x', y'), valid); valid is False when the transformed point
    falls at or behind the source near plane, or (when width/height are
    given) outside the source image domain [0, w-1] x [0, h-1].
    """
    if d <= 0:
        raise InvalidDepthError(f"depth {d} must be positive")
    P = pose.apply(backproject(K, j, d))
    if P[2] <= EPS_Z:
        return (0.0, 0.0), False
    u = K.fx * P[0] / P[2] + K.cx
    v = K.fy * P[1] / P[2] + K.cy
    if width is not None and height is not None:
        if not (0.0 <= u <= width - 1 and 0.0 <= v <= height - 1):
            return (u, v), False
    return (u, v), True


def _pixel_rays(K: CameraIntrinsics, width: int, height: int) -> np.ndarray:
    """Back-projection directions ((x-cx)/fx, (y-cy)/fy, 1), shape (h, w, 3)."""
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([(gx - K.cx) / K.fx, (gy - K.cy) / K.fy, np.ones_like(gx)], axis=-1)


def warp_coordinates(
    d: np.ndarray, K: CameraIntrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized warp of every pixel of a depth array into the source view.

    Returns (xs, ys, in_front, dx_dd, dy_dd) where xs/ys are source-view
    coordinates, in_front flags transformed points with z above the near
    plane, and dx_dd/dy_dd are d(x')/d(depth) and d(y')/d(depth) per pixel,
    used by gradient-based training.  Bounds checking against the source
    raster happens at sampling time.
    """
    h, w = d.shape
    rays = _pixel_rays(K, w, h)
    q = rays @ pose.rotation.T  # rotated ray per pixel
    t = pose.translation
    P = q * d[..., None] + t
    z = P[..., 2]
    in_front = z > EPS_Z
    zsafe = np.where(in_front, z, 1.0)
    xs = K.fx * P[..., 0] / zsafe + K.cx
    ys = K.fy * P[..., 1] / zsafe + K.cy
    # d(u)/d(depth) = fx (qx tz - tx qz) / z^2 ; numerator is depth-free
    dx_dd = K.fx * (q[..., 0] * t[2] - t[0] * q[..., 2]) / zsafe**2
    dy_dd = K.fy * (q[..., 1] * t[2] - t[1] * q[..., 2]) / zsafe**2
    return xs, ys, in_front, dx_dd, dy_dd


def synthesize_warped_image(
    I_src: Image, d_tgt: DepthMap, pose: Pose, K: CameraIntrinsics
) -> tuple[Image, Mask]:
    """Render the source image as seen from the target view (Eq.-style
    inverse warp: sample I_src at the reprojection of each target pixel).

    Validity combines positive depth, the near-plane check and the bilinear
    footprint staying inside the source domain.
    """
    same_shape(I_src, d_tgt)
    d = d_tgt.data.astype(np.float64)
    xs, ys, in_front, _, _ = warp_coordinates(d, K, pose)
    pos = d > 0
    vals, _, _, samp_ok = bilinear_sample_map(I_src, xs, ys)
    valid = pos & in_front & samp_ok
    vals[~valid] = 0.0
    return Image(np.clip(vals, 0.0, 1.0)), Mask(valid)
