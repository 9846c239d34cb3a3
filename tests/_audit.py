"""The finite-difference audit of ``trainer._objective``'s analytic
gradient, over many random fields as the tests and the acceptance criteria
run it.  Each point it evaluates also gets a fingerprint of the objective's
integer-valued switches; two points with equal fingerprints lie on the same
smooth piece."""

from __future__ import annotations

import _reference
import numpy as np

from scopedepth import trainer
from scopedepth.heap import keep_heap_mapped
from scopedepth.losses import LossConfig
from scopedepth.predictor import DepthField, forward_arrays, init_random
from scopedepth.trainer import Regime, TrainData


class KinkStraddled(RuntimeError):
    """A finite-difference probe crossed a non-smooth switch of the
    objective (L1 sign, argmin flip, bilinear cell edge, validity change or
    clamp), so central differences do not measure the analytic branch."""


def _fingerprint(regime: Regime, data: TrainData, field: DepthField, loss_cfg: LossConfig,
                 w: int, h: int) -> tuple:
    """The scale clamp gate and each frame's L1 signs for a label regime;
    the reference objective's fingerprint for self-supervision."""
    if regime == Regime.SELF_SUPERVISED:
        return _reference._selfsup_objective(field, data, w, h, loss_cfg, True).fingerprint
    d_hat, sigma = forward_arrays(field, w, h)
    return ((sigma > loss_cfg.sigma_min).astype(np.int8),
            *(np.sign(label - d_hat).astype(np.int8) * valid
              for label, _, valid in data._label_constants))


def finite_diff_audit(regime: Regime, data: TrainData, field: DepthField, step: float = 1e-4,
                      loss_cfg: LossConfig | None = None) -> float:
    """Worst relative disagreement between the assembled analytic gradient
    of the full MAP objective and central finite differences, per grid
    parameter (relative step; denominator floored at 1e-8).

    A probe whose fingerprint differs from the base point's raises
    :class:`KinkStraddled` instead of returning a corrupted comparison.
    """
    if field.grid_w > 8 or field.grid_h > 8:
        raise ValueError("audit fields are limited to 8x8 grids")
    trainer._check_bundle(regime, data)
    keep_heap_mapped()
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()
    w, h = data.resolution()
    obj = trainer._objective(regime, data, field, loss_cfg, w, h)
    base = _fingerprint(regime, data, field, loss_cfg, w, h)
    analytic = np.concatenate([obj.grad_log_depth.ravel(), obj.grad_log_sigma.ravel()])
    theta0 = field.params()
    worst = 0.0
    for i in range(theta0.size):
        hstep = step * max(1.0, abs(theta0[i]))
        probes = []
        for sgn in (1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sgn * hstep
            probe = field.with_params(theta)
            marks = _fingerprint(regime, data, probe, loss_cfg, w, h)
            if not all(np.array_equal(a, b) for a, b in zip(marks, base)):
                raise KinkStraddled(f"parameter {i} probe crossed a switch")
            probes.append(trainer._objective(regime, data, probe, loss_cfg, w, h).loss)
        fd = (probes[0] - probes[1]) / (2 * hstep)
        denom = max(abs(fd), abs(analytic[i]), 1e-8)
        worst = max(worst, abs(fd - analytic[i]) / denom)
    return worst


def audit_random_fields(
    regime: Regime,
    data: TrainData,
    draws: int,
    grid: int = 4,
    depth_init_mm: float = 25.0,
    jitter: float = 0.25,
    seed0: int = 100,
    step: float = 1e-4,
    loss_cfg: LossConfig | None = None,
    max_resample: int = 60,
) -> list[float]:
    """Run the audit over ``draws`` random fields, redrawing any field whose
    probes straddle a kink of the piecewise-smooth objective."""
    errors = []
    seed = seed0
    attempts = 0
    while len(errors) < draws:
        field = init_random(seed, grid, grid, depth_init_mm, jitter)
        seed += 1
        attempts += 1
        if attempts > draws + max_resample:
            raise RuntimeError("could not find enough kink-free samples")
        try:
            errors.append(finite_diff_audit(regime, data, field, step, loss_cfg))
        except KinkStraddled:
            continue
    return errors
