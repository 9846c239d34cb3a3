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

:func:`l1_nll_arrays` is that shape, written once: it takes a non-negative
residual, so the self-supervised step hands it the photometric error
directly.  :func:`supervised_nll_arrays` applies it to the absolute depth
error and serves the first and the third.  Both take float64 (h, w) arrays
finite at masked pixels too, and the :func:`pixel_weights` of the mask
(``None`` when every pixel is valid), and write into none of them; the
trainer checks the rasters they come from.

Any predicted scale is clamped from below at ``sigma_min`` before entering
the loss; gradients are taken with respect to the raw (unclamped) scale,
zero where the clamp is active, so they match finite differences of the
actual computation; a scale that no pixel clamps skips the clamp.
Gradient maps hold the derivative of the *scalar* (mean-reduced) loss, and
the L1 subgradient at zero residual is zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class LossConfig:
    sigma_min: float = 1e-3
    lambda_u: float = 0.01
    weight_decay: float = 1e-7

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma_min <= 0:
            raise ValueError("sigma_min must be positive")
        if self.lambda_u < 0 or self.weight_decay < 0:
            raise ValueError("lambda_u and weight_decay must be >= 0")


@dataclass(frozen=True, eq=False)
class LossValue:
    """Scalar loss and its gradient maps.

    ``scalar`` is the mean of the per-pixel term over the valid pixels;
    gradient maps are d(scalar)/d(input), the input being predicted depth
    or, from :func:`l1_nll_arrays`, the residual, and are zero at
    masked-out pixels.
    """

    scalar: float
    grad_depth: np.ndarray
    grad_sigma: np.ndarray


def pixel_weights(valid: np.ndarray) -> tuple[np.ndarray | None, int]:
    """The 0/1 float64 map of a bool mask, or ``None`` when every pixel is
    valid, and its count, as :func:`l1_nll_arrays` takes them."""
    n = int(valid.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    return None if n == valid.size else valid.astype(np.float64), n


def l1_nll_arrays(
    residual: np.ndarray,
    scale: np.ndarray,
    weights: np.ndarray | None, n: int,
    cfg: LossConfig,
    var_label: np.ndarray | None = None,
) -> LossValue:
    """Mean over valid pixels of r / s + log s for a non-negative residual r.

    ``s`` is the clamped ``scale``, or ``sqrt(var_label + clamp(scale)^2)``
    when the labels carry their own variance (the uncertain student's
    teacher variance).  ``grad_depth`` carries d(scalar)/d(r) and
    ``grad_sigma`` the derivative with respect to the raw ``scale``.  The
    bits are those of an all-ones map for ``weights=None``, since x * 1.0
    == x, and of no label variance for ``var_label == 0``, since
    ``sqrt(x * x) == x`` exactly.
    """
    # NaN compares false, so a NaN scale takes the unclamped path to a NaN loss
    clamped = scale.min() <= cfg.sigma_min
    s_a = np.maximum(scale, cfg.sigma_min) if clamped else scale
    s = s_a if var_label is None else s_a * s_a + var_label  # may be ``scale``: read only
    if var_label is not None:
        np.sqrt(s, out=s)  # in place: the scale costs one new map
    term, scratch = residual / s, np.log(s)
    term += scratch
    if weights is not None:
        term *= weights
    scalar = float(term.sum() / n)
    inv_s = np.divide(1.0, s, out=term)
    d_s = np.square(s, out=scratch)
    np.divide(residual, d_s, out=d_s)
    np.subtract(inv_s, d_s, out=d_s)
    if var_label is not None:
        d_s *= s_a / s
    if clamped:
        d_s *= scale > cfg.sigma_min  # the gate: zero where the clamp is active
    for grad in (inv_s, d_s):  # (g * weights) / n, in place
        if weights is not None:
            grad *= weights
        grad /= n
    return LossValue(scalar, inv_s, d_s)


def supervised_nll_arrays(
    d: np.ndarray,
    d_hat: np.ndarray,
    sigma_a: np.ndarray,
    weights: np.ndarray | None, n: int,
    cfg: LossConfig,
    var_label: np.ndarray | None = None,
) -> LossValue:
    """Mean over valid pixels of |d - d_hat| / s + log s: the
    :func:`l1_nll_arrays` of the absolute depth error, its ``grad_depth``
    taken with respect to ``d_hat``."""
    r = d - d_hat
    lv = l1_nll_arrays(np.abs(r), sigma_a, weights, n, cfg, var_label)
    # -sign(r) * grad, in r's buffer: exact, signed zeros included
    np.negative(np.sign(r, out=r), out=r)
    r *= lv.grad_depth
    return LossValue(lv.scalar, r, lv.grad_sigma)


def prior_loss(theta: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray]:
    """weight_decay * sum(theta^2) and its gradient."""
    theta = np.asarray(theta, dtype=np.float64)
    return cfg.weight_decay * float((theta**2).sum()), 2.0 * cfg.weight_decay * theta
