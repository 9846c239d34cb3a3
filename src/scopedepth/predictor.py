"""Learnable parameter field producing per-pixel depth and aleatoric scale.

The predictor is a pair of coarse grids holding log-depth and log-scale.
A forward pass bilinearly upsamples each grid to the requested resolution
(align-corners mapping: grid corners coincide with image corners) and
exponentiates, so outputs are strictly positive for any finite parameters.
The upsample is two matrix products with cached per-axis weight matrices,
``Wy @ grid @ Wx.T``, so the backward pass ``Wy.T @ g @ Wx`` is its exact
adjoint by construction.

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
    """Coarse log-depth / log-scale grids plus the seed that created them."""

    log_depth: np.ndarray
    log_sigma: np.ndarray
    seed: int

    def __post_init__(self):
        ld = np.asarray(self.log_depth, dtype=np.float64)
        ls = np.asarray(self.log_sigma, dtype=np.float64)
        if ld.ndim != 2 or ls.shape != ld.shape:
            raise ValueError("parameter grids must be equal-shape 2-D arrays")
        if not (np.all(np.isfinite(ld)) and np.all(np.isfinite(ls))):
            raise ValueError("parameter grids must be finite")
        object.__setattr__(self, "log_depth", ld)
        object.__setattr__(self, "log_sigma", ls)

    @property
    def grid_h(self) -> int:
        return self.log_depth.shape[0]

    @property
    def grid_w(self) -> int:
        return self.log_depth.shape[1]

    def params(self) -> np.ndarray:
        """Flattened parameter vector (log_depth then log_sigma)."""
        return np.concatenate([self.log_depth.ravel(), self.log_sigma.ravel()])

    def with_params(self, theta: np.ndarray) -> "DepthField":
        n = self.log_depth.size
        theta = np.asarray(theta, dtype=np.float64)
        return DepthField(
            theta[:n].reshape(self.log_depth.shape),
            theta[n:].reshape(self.log_sigma.shape),
            self.seed,
        )

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
        return DepthField(
            np.array(d["log_depth"], dtype=np.float64).reshape(gh, gw),
            np.array(d["log_sigma"], dtype=np.float64).reshape(gh, gw),
            int(d["seed"]),
        )

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

    steps: int = 1500
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
    return DepthField(ld.reshape(grid_h, grid_w), ls.reshape(grid_h, grid_w), seed)


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
    """Bilinear upsample of a coarse grid to (h, w), align-corners:
    ``Wy @ grid @ Wx.T`` with the per-axis weight matrices."""
    gh, gw = grid.shape
    if w < gw or h < gh:
        raise ValueError("output resolution must be >= grid resolution")
    g = np.asarray(grid, dtype=np.float64)
    return _axis_matrix(h, gh) @ g @ _axis_matrix(w, gw).T


def upsample_bilinear_adjoint(grad: np.ndarray, gw: int, gh: int) -> np.ndarray:
    """Adjoint of :func:`upsample_bilinear`: ``Wy.T @ grad @ Wx``."""
    h, w = grad.shape
    return _axis_matrix(h, gh).T @ grad @ _axis_matrix(w, gw)


def forward_arrays(field: DepthField, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 (depth, sigma) maps; the numeric path used in training."""
    d = np.exp(upsample_bilinear(field.log_depth, w, h))
    s = np.exp(upsample_bilinear(field.log_sigma, w, h))
    return d, s


def forward(field: DepthField, w: int, h: int) -> tuple[DepthMap, UncMap]:
    """Public forward pass returning raster containers."""
    d, s = forward_arrays(field, w, h)
    return DepthMap(d), UncMap(s, "std")


def backward(
    field: DepthField,
    grad_depth: np.ndarray,
    grad_sigma: np.ndarray,
    d: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain incoming per-pixel gradients to the parameter grids.

    ``d`` and ``s`` are the maps :func:`forward_arrays` returned for
    ``field``.  Each is exp(upsample(grid)), so the cell gradient is the
    upsample adjoint of (map * incoming gradient).
    """
    g_ld = upsample_bilinear_adjoint(np.asarray(grad_depth) * d, field.grid_w, field.grid_h)
    g_ls = upsample_bilinear_adjoint(np.asarray(grad_sigma) * s, field.grid_w, field.grid_h)
    return g_ld, g_ls
