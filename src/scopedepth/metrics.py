"""Depth error metrics, median scale correction, and uncertainty
calibration (coverage curves and the signed/absolute area under the
calibration error).

The relative-error denominators follow the evaluated prediction (d_hat) by
default, switchable to the ground-truth denominator through
``depth_metrics(..., gt_denominator=True)`` for comparison against the
more common convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .imagery import DepthMap, Mask, UncMap, same_shape

_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float

    FIELDS = ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3")

    def as_row(self) -> list[float]:
        return [getattr(self, f) for f in self.FIELDS]


@dataclass(frozen=True, eq=False)
class CalibrationCurve:
    """Empirical interval coverage per confidence level.

    Coverage is monotone non-decreasing in p because the interval
    half-width grows with p for fixed sigma.
    """

    p_grid: np.ndarray
    coverage: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=np.float64)
        c = np.asarray(self.coverage, dtype=np.float64)
        if p.ndim != 1 or p.shape != c.shape or p.size == 0:
            raise ValueError("p_grid and coverage must be equal-length 1-D")
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError("confidence levels must lie in (0, 1)")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p_grid must be strictly increasing")
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "coverage", c)


def default_p_grid(levels: int = 99) -> np.ndarray:
    return np.arange(1, levels + 1, dtype=np.float64) / (levels + 1)


def _valid_arrays(mask: Mask | None, *maps) -> list[np.ndarray]:
    """Float64 values of each map at the pixels ``mask`` flags valid (all
    pixels without one), after checking every raster's dimensions."""
    same_shape(*maps, *([] if mask is None else [mask]))
    sel = np.full((maps[0].height, maps[0].width), True) if mask is None else mask.data
    if not sel.any():
        raise ValueError("no valid pixels")
    return [m.data.astype(np.float64)[sel] for m in maps]


def scale_correction(d_gt: DepthMap, d_pred: DepthMap, mask: Mask | None = None) -> float:
    """Per-image scale factor: median(gt) / median(pred) over valid pixels."""
    gt, pred = _valid_arrays(mask, d_gt, d_pred)
    m_gt = float(np.median(gt))
    m_pred = float(np.median(pred))
    if m_gt <= 0 or m_pred <= 0:
        raise ValueError("medians must be positive for scale correction")
    return m_gt / m_pred


def depth_metrics(
    d: DepthMap, d_hat: DepthMap, mask: Mask | None = None,
    gt_denominator: bool = False,
) -> DepthMetrics:
    """Depth errors of ``d_hat`` against ground truth ``d`` over valid
    pixels; AbsRel and SqRel divide by the prediction unless
    ``gt_denominator``."""
    gt, pred = _valid_arrays(mask, d, d_hat)
    if np.any(gt <= 0) or np.any(pred <= 0):
        raise ValueError("depths must be positive on valid pixels")
    diff = gt - pred
    den = gt if gt_denominator else pred
    abs_rel = float(np.mean(np.abs(diff) / den))
    sq_rel = float(np.mean(diff**2 / den))
    rmse = float(np.sqrt(np.mean(diff**2)))
    rmse_log = float(np.sqrt(np.mean((np.log(gt) - np.log(pred)) ** 2)))
    ratio = np.maximum(gt / pred, pred / gt)
    d1 = float(np.mean(ratio < 1.25))
    d2 = float(np.mean(ratio < 1.25**2))
    d3 = float(np.mean(ratio < 1.25**3))
    return DepthMetrics(abs_rel, sq_rel, rmse, rmse_log, d1, d2, d3)


def normal_ppf(p) -> np.ndarray | float:
    """Inverse CDF of the standard normal distribution."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 0:
        return _STD_NORMAL.inv_cdf(float(arr))
    return np.array([_STD_NORMAL.inv_cdf(float(v)) for v in arr.ravel()]).reshape(arr.shape)


def calibration_curve(
    d: DepthMap, d_hat: DepthMap, sigma: UncMap, mask: Mask | None = None,
    p_grid: np.ndarray | None = None,
) -> CalibrationCurve:
    """Fraction of valid pixels whose |error| fits in the central Gaussian
    interval of each confidence level: |d - d_hat| <= ppf((p+1)/2) * sigma."""
    if sigma.kind != "std":
        raise ValueError("sigma must be std-kind (call .to_std())")
    gt, pred, s = _valid_arrays(mask, d, d_hat, sigma)
    p_grid = default_p_grid() if p_grid is None else np.asarray(p_grid, np.float64)
    if p_grid.size == 0:
        raise ValueError("empty confidence grid")
    err = np.abs(gt - pred)
    if np.any(s <= 0):
        raise ValueError("sigma must be positive on valid pixels")
    z = err / s
    z_sorted = np.sort(z)
    half = normal_ppf((p_grid + 1) / 2)
    cov = np.searchsorted(z_sorted, half, side="right") / z.size
    return CalibrationCurve(p_grid, cov)


def auce(curve: CalibrationCurve) -> tuple[float, float]:
    """(signed, absolute) area between the nominal level and the coverage.

    Signed area integrates p - coverage(p) over [0, 1] (positive means
    overconfident); the absolute variant integrates |coverage(p) - p|.
    The grid is extended to p = 0 and p = 1 by linear extrapolation of the
    boundary segments (constant extension for a single-point grid).
    """
    p = curve.p_grid
    c = curve.coverage
    if p.size == 1:
        c0, c1 = float(c[0]), float(c[0])
    else:
        c0 = float(c[0] - p[0] * (c[1] - c[0]) / (p[1] - p[0]))
        c1 = float(c[-1] + (1 - p[-1]) * (c[-1] - c[-2]) / (p[-1] - p[-2]))
    pe = np.concatenate([[0.0], p, [1.0]])
    ce = np.concatenate([[c0], c, [c1]])
    gap = pe - ce
    signed = float(np.trapezoid(gap, pe))
    absolute = float(np.trapezoid(np.abs(gap), pe))
    return signed, absolute
