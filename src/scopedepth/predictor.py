"""Learnable parameter field producing per-pixel depth and aleatoric scale.

The predictor is one (2, gh, gw) stack of coarse grids: log-depth in
plane 0 and log-scale in plane 1.  A forward pass bilinearly upsamples
the stack to the requested resolution (align-corners mapping: grid corners
coincide with image corners) and exponentiates, so outputs are strictly
positive for any finite parameters.  The upsample is one batched pair of
matrix products with cached per-axis weight matrices,
``Wy @ grids @ Wx.T`` over both planes, so the backward pass
``Wy.T @ g @ Wx`` is its exact adjoint by construction.

Field initialization uses the package xoshiro generator, so equal seeds
give bitwise-equal fields on every platform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .imagery import DepthMap, UncMap, read_json, write_json
from .losses import LossConfig
from .rng import Xoshiro256


@dataclass(frozen=True, eq=False)
class DepthField:
    """A member's parameters, one read-only float64 (2, gh, gw) stack of
    the log-depth and log-scale grids, plus the seed that created it."""

    grids: np.ndarray
    seed: int

    def __post_init__(self):
        grids = np.array(self.grids, dtype=np.float64)
        if grids.ndim != 3 or grids.shape[0] != 2:
            raise ValueError("parameters must be a (2, gh, gw) stack of grids")
        if not np.all(np.isfinite(grids)):
            raise ValueError("parameter grids must be finite")
        grids.setflags(write=False)
        object.__setattr__(self, "grids", grids)

    @property
    def log_depth(self) -> np.ndarray:
        return self.grids[0]

    @property
    def log_sigma(self) -> np.ndarray:
        return self.grids[1]

    @property
    def grid_h(self) -> int:
        return self.grids.shape[1]

    @property
    def grid_w(self) -> int:
        return self.grids.shape[2]

    def to_json(self) -> dict:
        return {
            "grid_w": self.grid_w,
            "grid_h": self.grid_h,
            "seed": self.seed,
            "log_depth": [float(v) for v in self.log_depth.ravel()],
            "log_sigma": [float(v) for v in self.log_sigma.ravel()],
        }

    @staticmethod
    def from_json(d: dict) -> "DepthField":
        gh, gw = d["grid_h"], d["grid_w"]
        grids = np.array([d["log_depth"], d["log_sigma"]], dtype=np.float64)
        return DepthField(grids.reshape(2, gh, gw), int(d["seed"]))

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path) -> "DepthField":
        return read_json(path, DepthField.from_json)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings of one member: ``steps`` fixed-rate steps
    on a square ``grid`` x ``grid`` field initialised around
    ``depth_init_mm`` (:func:`init_random`), under the ``loss`` weights."""

    steps: int = 800
    learning_rate: float = 1.0
    grid: int = 16
    depth_init_mm: float = 30.0
    jitter: float = 0.05
    loss: LossConfig = LossConfig()
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.grid < 1:
            raise ValueError(f"grid must be at least 1 cell a side, got {self.grid}")


def init_random(
    seed: int, grid_w: int, grid_h: int, depth_init_mm: float = 30.0,
    jitter: float = 0.05,
) -> DepthField:
    """Uniform log-depth around ln(depth_init_mm), log-scale around ln 1,
    both jittered by U(-jitter, +jitter) per cell."""
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid must be at least 1 cell a side, got {grid_w}x{grid_h}")
    if depth_init_mm <= 0:
        raise ValueError("depth_init_mm must be positive")
    gen = Xoshiro256(seed).substream("init")
    n = grid_w * grid_h
    ld = np.log(depth_init_mm) + np.array(gen.uniforms(n, -jitter, jitter))
    ls = np.array(gen.uniforms(n, -jitter, jitter))
    return DepthField(np.stack([ld, ls]).reshape(2, grid_h, grid_w), seed)


def _axis_weights(n_out: int, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Align-corners bilinear mapping of output index -> (left cell, frac)."""
    if n_grid == 1:
        return np.zeros(n_out, dtype=np.int64), np.zeros(n_out)
    if n_out == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1)
    u = np.arange(n_out, dtype=np.float64) * (n_grid - 1) / (n_out - 1)
    i0 = np.minimum(np.floor(u).astype(np.int64), n_grid - 2)
    return i0, u - i0


@functools.lru_cache(maxsize=64)
def _axis_matrix(n_out: int, n_grid: int) -> np.ndarray:
    """Read-only (n_out, n_grid) align-corners bilinear weights of one axis."""
    i0, frac = _axis_weights(n_out, n_grid)
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_grid))
    m[rows, i0] = 1 - frac
    m[rows, np.minimum(i0 + 1, n_grid - 1)] += frac
    m.setflags(write=False)
    return m


def upsample_bilinear(grid: np.ndarray, w: int, h: int) -> np.ndarray:
    """Bilinear upsample of coarse grids, over the last two axes, to
    (..., h, w), align-corners: ``Wy @ grid @ Wx.T`` with the per-axis
    weight matrices."""
    gh, gw = grid.shape[-2:]
    if w < gw or h < gh:
        raise ValueError("output resolution must be >= grid resolution")
    g = np.asarray(grid, dtype=np.float64)
    return _axis_matrix(h, gh) @ g @ _axis_matrix(w, gw).T


def upsample_bilinear_adjoint(grad: np.ndarray, gw: int, gh: int) -> np.ndarray:
    """Adjoint of :func:`upsample_bilinear` over the last two axes:
    ``Wy.T @ grad @ Wx``."""
    h, w = grad.shape[-2:]
    return _axis_matrix(h, gh).T @ grad @ _axis_matrix(w, gw)


def forward_arrays(grids: np.ndarray, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 (depth, sigma) maps of a (2, gh, gw) parameter stack, from
    one upsample and one exp of both planes; the numeric path of training."""
    d, s = np.exp(upsample_bilinear(grids, w, h))
    return d, s


def forward(field: DepthField, w: int, h: int) -> tuple[DepthMap, UncMap]:
    """Public forward pass returning raster containers."""
    d, s = forward_arrays(field.grids, w, h)
    return DepthMap(d), UncMap(s, "std")


def backward(
    grids: np.ndarray,
    grad_depth: np.ndarray,
    grad_sigma: np.ndarray,
    d: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """Chain incoming per-pixel gradients to the (2, gh, gw) parameter stack.

    ``d`` and ``s`` are the maps :func:`forward_arrays` returned for
    ``grids``.  Each is exp(upsample(plane)), so a plane's gradient is the
    upsample adjoint of (map * incoming gradient); both run as one adjoint.
    """
    chained = np.empty((2, *d.shape))
    np.multiply(grad_depth, d, out=chained[0])
    np.multiply(grad_sigma, s, out=chained[1])
    _, gh, gw = grids.shape
    return upsample_bilinear_adjoint(chained, gw, gh)
