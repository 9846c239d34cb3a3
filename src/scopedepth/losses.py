"""Likelihood losses with analytic gradients.

All three likelihoods share the heteroscedastic L1 shape ``|r|/s + log s``
averaged over valid pixels; they differ in what plays the role of the
residual and the scale:

* supervised: residual to depth labels, scale is the predicted aleatoric std
* self-supervised: photometric residual, scale is the photometric
  uncertainty
* uncertain teacher-student: the supervised loss on teacher depth with
  the scale widened to sqrt(teacher_var + student_aleatoric^2), by passing
  the teacher's variance as ``var_label``

:func:`supervised_nll_arrays` serves the first and the third,
:func:`selfsup_nll_arrays` the second.  Both take float64 (h, w) arrays
finite at masked pixels too, and the :func:`pixel_weights` of the mask;
the trainer checks the rasters they come from.

Any predicted scale is clamped from below at ``sigma_min`` before entering
the loss; gradients are taken with respect to the raw (unclamped) scale,
zero where the clamp is active, so they match finite differences of the
actual computation.  Gradient maps hold the derivative of the *scalar*
(mean-reduced) loss, and the L1 subgradient at zero residual is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    sigma_min: float = 1e-3
    lambda_u: float = 0.01
    weight_decay: float = 1e-7

    def __post_init__(self):
        if self.sigma_min <= 0:
            raise ValueError("sigma_min must be positive")
        if self.lambda_u < 0 or self.weight_decay < 0:
            raise ValueError("lambda_u and weight_decay must be >= 0")


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss and its gradient maps.

    ``scalar`` is the mean of the per-pixel term over the valid pixels;
    gradient maps are d(scalar)/d(input) and are zero at masked-out pixels.
    """

    scalar: float
    grad_depth: np.ndarray
    grad_sigma: np.ndarray


def pixel_weights(valid: np.ndarray) -> tuple[np.ndarray, int]:
    """The 0/1 float64 map of a bool mask and its count, as both likelihoods take it."""
    n = int(valid.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    return valid.astype(np.float64), n


def _reduce(term: np.ndarray, weights: np.ndarray, n: int) -> float:
    term *= weights  # the caller's scratch map, weighted in place
    return float(term.sum() / n)


def supervised_nll_arrays(
    d: np.ndarray,
    d_hat: np.ndarray,
    sigma_a: np.ndarray,
    weights: np.ndarray, n: int,
    cfg: LossConfig,
    var_label: np.ndarray | None = None,
) -> LossValue:
    """Mean over valid pixels of |d - d_hat| / s + log s.

    ``s`` is the clamped ``sigma_a``, or ``sqrt(var_label + clamp(sigma_a)^2)``
    when the labels carry their own variance (the uncertain student's
    teacher variance).  ``grad_sigma`` is the derivative with respect to
    the raw ``sigma_a``; with ``var_label == 0`` the result is bitwise that
    of no label variance, since ``sqrt(x * x) == x`` exactly.
    """
    s_a = np.maximum(sigma_a, cfg.sigma_min)
    gate = (sigma_a > cfg.sigma_min).astype(np.float64)
    s = s_a if var_label is None else s_a * s_a + var_label
    if var_label is not None:
        np.sqrt(s, out=s)  # in place: the scale costs one new map
    r = d - d_hat
    abs_r = np.abs(r)
    term = abs_r / s + np.log(s)
    scalar = _reduce(term, weights, n)
    inv_s = 1.0 / s  # -sign(r) * (1 / s) == -sign(r) / s exactly
    grad_depth = -np.sign(r) * inv_s * weights / n
    d_s = inv_s - abs_r / s**2
    if var_label is not None:
        d_s *= s_a / s
    grad_sigma = d_s * gate * weights / n
    return LossValue(scalar, grad_depth, grad_sigma)


def selfsup_nll_arrays(
    f_p: np.ndarray,
    u_hat: np.ndarray,
    weights: np.ndarray, n: int,
    cfg: LossConfig,
) -> LossValue:
    """Mean over valid pixels of F_p / u + log u.

    ``grad_depth`` here carries d(scalar)/d(F_p); the chain through the warp
    into actual depth parameters happens in the trainer.
    """
    u = np.maximum(u_hat, cfg.sigma_min)
    gate = (u_hat > cfg.sigma_min).astype(np.float64)
    term = f_p / u + np.log(u)
    scalar = _reduce(term, weights, n)
    inv_u = 1.0 / u
    grad_fp = inv_u * weights / n
    grad_sigma = (inv_u - f_p / u**2) * gate * weights / n
    return LossValue(scalar, grad_fp, grad_sigma)


def prior_loss(theta: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """weight_decay * sum(theta^2) and its gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    return cfg.weight_decay * float((theta**2).sum()), 2.0 * cfg.weight_decay * theta
