"""Pinhole camera model, SE(3) poses, and depth-based inverse warping.

Camera convention: right-handed, z forward, x right, y down.  Pixel centers
sit at integer coordinates: the optical axis of a camera with principal
point (cx, cy) pierces pixel (cx, cy) exactly.  A pose maps points between
frames as ``p_dst = R @ p_src + t`` with translations in millimetres.

The inverse warp splits into a depth-free part, :func:`warp_basis` (the
camera and translation it warps with, then the rotated pixel rays and the
numerators of the depth Jacobian as separate (h, w) planes), and a
per-depth pass, :func:`warp_from_basis`, which reads only the depth and
that basis.  Training builds the first once per source pose and runs only
the second per step; :func:`synthesize_warped_image` chains the two for
one image.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .imagery import (DepthMap, Image, Mask, bilinear_sample_planes, json_entry,
                      read_json, same_shape, write_json)

EPS_Z = 1e-6  # near-plane cutoff, mm


@dataclass(frozen=True, eq=False)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and np.isfinite(value)):
                raise ValueError(f"intrinsics {name} must be finite, got {value!r}")
            if name in ("fx", "fy") and not value > 0:
                raise ValueError(f"intrinsics {name} must be positive, got {value}")

    def to_json(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @staticmethod
    def from_json(d: dict) -> "CameraIntrinsics":
        return CameraIntrinsics(*(json_entry(d, k, 0.0) for k in ("fx", "fy", "cx", "cy")))


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation (3x3, det +1) plus translation (3,), mm."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("pose rotation and translation must be finite")
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(R) < 0:
            raise ValueError("rotation has negative determinant")
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def compose(self, other: "Pose") -> "Pose":
        """self after other: compose(self, other)(p) = self(other(p))."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -Rt @ self.translation)

    def to_json(self) -> dict:
        return {
            "R": [float(v) for v in self.rotation.reshape(-1)],
            "t": [float(v) for v in self.translation],
        }

    @staticmethod
    def from_json(d: dict) -> "Pose":
        return Pose(np.array(json_entry(d, "R", [0.0])).reshape(3, 3),
                    np.array(json_entry(d, "t", [0.0])))

    def save(self, path) -> None:
        write_json(self.to_json(), path, indent=1)

    @staticmethod
    def load(path) -> "Pose":
        return read_json(path, Pose.from_json)


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


def pixel_rays(K: CameraIntrinsics, width: int, height: int) -> np.ndarray:
    """Back-projection directions ((x-cx)/fx, (y-cy)/fy, 1), shape (h, w, 3)."""
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([(gx - K.cx) / K.fx, (gy - K.cy) / K.fy, np.ones_like(gx)], axis=-1)


def warp_basis(K: CameraIntrinsics, pose: Pose, width: int, height: int) -> tuple:
    """The depth-free part of warping a (height, width) target raster into
    the source view of ``pose``: the camera ``K`` and the translation t it
    warps with, then five (h, w) planes, the rotated rays q_x, q_y, q_z of
    ``q = ((x-cx)/fx, (y-cy)/fy, 1) @ R.T`` and the numerators
    fx (q_x t_z - t_x q_z), fy (q_y t_z - t_y q_z) of the depth Jacobian.
    Training builds it once per source pose."""
    q = pixel_rays(K, width, height) @ pose.rotation.T
    t = pose.translation
    qx, qy, qz = (np.ascontiguousarray(q[..., i]) for i in range(3))
    return K, t, qx, qy, qz, K.fx * (qx * t[2] - t[0] * qz), K.fy * (qy * t[2] - t[1] * qz)


def warp_from_basis(d: np.ndarray, basis: tuple) -> tuple[np.ndarray, ...]:
    """Warp every pixel of depth array ``d`` into the source view of a
    :func:`warp_basis` built at d's size.

    Returns (xs, ys, in_front, dx_dd, dy_dd): xs/ys are source-view
    coordinates, in_front flags transformed points with z above the near
    plane, and dx_dd/dy_dd are d(x')/d(depth) and d(y')/d(depth) per pixel,
    used by gradient-based training.  Bounds checking against the source
    raster happens at sampling time."""
    K, t, qx, qy, qz, num_x, num_y = basis
    z = qz * d + t[2]
    in_front = z > EPS_Z
    zsafe = np.where(in_front, z, 1.0)
    xs = K.fx * (qx * d + t[0]) / zsafe + K.cx
    ys = K.fy * (qy * d + t[1]) / zsafe + K.cy
    # d(u)/d(depth) = fx (qx tz - tx qz) / z^2
    z2 = zsafe**2
    return xs, ys, in_front, num_x / z2, num_y / z2


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
    xs, ys, in_front, _, _ = warp_from_basis(d, warp_basis(K, pose, d_tgt.width, d_tgt.height))
    pos = d > 0
    vals, _, _, samp_ok = bilinear_sample_planes(I_src.planes(), xs, ys)
    valid = pos & in_front & samp_ok
    vals = np.moveaxis(np.where(valid, vals, 0.0), 0, -1)
    return Image(np.clip(vals, 0.0, 1.0)), Mask(valid)
