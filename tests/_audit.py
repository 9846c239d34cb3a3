"""The finite-difference audit of ``trainer._objective``'s analytic
gradient, over many random fields as the tests and the acceptance criteria
run it.  Each point it evaluates also gets a fingerprint of the objective's
integer-valued switches; two points with equal fingerprints lie on the same
smooth piece."""

from __future__ import annotations

import numpy as np

from scopedepth import trainer
from scopedepth.geometry import warp_from_basis
from scopedepth.heap import keep_heap_mapped
from scopedepth.imagery import bilinear_sample_planes
from scopedepth.photometry import photometric_residual_arrays
from scopedepth.predictor import DepthField, forward_arrays, init_random
from scopedepth.trainer import TrainConfig, TrainData

# the random fields of audit_random_fields: grid cells a side, initial
# depth and jitter, the first seed, the relative probe step, and how many
# fields it may redraw before it gives up
GRID = 4
DEPTH_INIT_MM = 25.0
JITTER = 0.25
SEED0 = 100
STEP = 1e-4
MAX_RESAMPLE = 60


class KinkStraddled(RuntimeError):
    """A finite-difference probe crossed a non-smooth switch of the
    objective (L1 sign, argmin flip, bilinear cell edge, validity change or
    clamp), so central differences do not measure the analytic branch."""


def _selfsup_marks(data: TrainData, d_hat: np.ndarray, lambda_u: float) -> list:
    """Each triplet's switches, as far into the step as they reach: every
    source's warp validity, bilinear cell and L1 signs, the argmin over
    sources, and the smoothness signs when smoothness is on.  The SSIM
    backward and the chain rule are left out, since they switch nothing."""
    marks = []
    for tgt_moments, sources, bases, _ in data._constants:
        tgt = tgt_moments[0]
        warps = []
        for src, basis in zip(sources, bases):
            xs, ys, in_front, _, _ = warp_from_basis(d_hat, basis)
            vals, _, _, samp_ok = bilinear_sample_planes(src, xs, ys)
            valid = in_front & samp_ok
            warps.append((vals, valid))
            marks += [valid, np.floor(np.where(valid, xs, -1)), np.floor(np.where(valid, ys, -1)),
                      np.sign(tgt - vals) * valid]
        marks.append(photometric_residual_arrays(tgt_moments, warps)[2])
        if lambda_u > 0:
            marks += [np.sign(np.diff(d_hat, axis=1)), np.sign(np.diff(d_hat, axis=0))]
    return marks


def _fingerprint(data: TrainData, field: DepthField, cfg: TrainConfig,
                 w: int, h: int) -> tuple:
    """The scale clamp gate, then each triplet's :func:`_selfsup_marks`
    for a bundle of triplets, or each frame's L1 signs (weights ``None``
    meaning every pixel)."""
    d_hat, sigma = forward_arrays(field.grids, w, h)
    gate = sigma > cfg.sigma_min
    if data.triplets:
        return gate, *_selfsup_marks(data, d_hat, cfg.lambda_u)
    return gate, *(np.sign(label - d_hat) * (1.0 if weights is None else weights)
                   for label, _, weights, _ in data._constants)


def finite_diff_audit(data: TrainData, field: DepthField, step: float = STEP,
                      cfg: TrainConfig = TrainConfig(lambda_u=0.0, weight_decay=0.0)
                      ) -> float:
    """Worst relative disagreement between the assembled analytic gradient
    of the full MAP objective and central finite differences, per grid
    parameter (relative step; denominator floored at 1e-8).

    A probe whose fingerprint differs from the base point's raises
    :class:`KinkStraddled` instead of returning a corrupted comparison.
    """
    if field.grid_w > 8 or field.grid_h > 8:
        raise ValueError("audit fields are limited to 8x8 grids")
    trainer._check_bundle(data)
    keep_heap_mapped()
    w, h = data.resolution()
    _, grad = trainer._objective(data, field.grids, cfg, w, h)
    base = _fingerprint(data, field, cfg, w, h)
    analytic = grad.ravel()
    theta0 = field.grids.ravel()
    worst = 0.0
    for i in range(theta0.size):
        hstep = step * max(1.0, abs(theta0[i]))
        probes = []
        for sgn in (1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sgn * hstep
            probe = DepthField(theta.reshape(field.grids.shape), field.seed)
            marks = _fingerprint(data, probe, cfg, w, h)
            if not all(np.array_equal(a, b) for a, b in zip(marks, base)):
                raise KinkStraddled(f"parameter {i} probe crossed a switch")
            probes.append(trainer._objective(data, probe.grids, cfg, w, h)[0])
        fd = (probes[0] - probes[1]) / (2 * hstep)
        denom = max(abs(fd), abs(analytic[i]), 1e-8)
        worst = max(worst, abs(fd - analytic[i]) / denom)
    return worst


def audit_random_fields(data: TrainData, draws: int,
                        cfg: TrainConfig) -> list[float]:
    """Run the audit over ``draws`` random fields, seeded from ``SEED0`` on,
    redrawing any field whose probes straddle a kink of the
    piecewise-smooth objective."""
    errors = []
    seed = SEED0
    while len(errors) < draws:
        if seed - SEED0 >= draws + MAX_RESAMPLE:
            raise RuntimeError("could not find enough kink-free samples")
        field = init_random(seed, GRID, GRID, DEPTH_INIT_MM, JITTER)
        seed += 1
        try:
            errors.append(finite_diff_audit(data, field, STEP, cfg))
        except KinkStraddled:
            continue
    return errors
