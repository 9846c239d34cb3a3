"""Gradient-descent training of depth fields under five supervision regimes.

Supervision comes from ground-truth depth, simulated SfM labels, multi-view
photometric consistency, or a frozen teacher ensemble (with or without the
teacher's predictive variance folded into the loss scale).  Optimization is
plain fixed-step gradient descent on the MAP objective, which keeps every
run bitwise reproducible from (regime, data, config, seed) and lets the
finite-difference audit check the assembled analytic gradient end to end,
warp, sampling, SSIM and minimum-over-sources included.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .geometry import CameraIntrinsics, Pose, warp_basis, warp_from_basis
from .heap import keep_heap_mapped
from .imagery import DepthMap, Image, Mask, UncMap, bilinear_sample_planes
from .losses import (
    LossConfig,
    _mask_or_full,
    prior_loss,
    selfsup_nll_arrays,
    supervised_nll_arrays,
)
from .photometry import (
    PhotometricConfig,
    _ssim_moments,
    edge_weights,
    photometric_residual_arrays,
    smoothness_and_grad,
    ssim_backward_channel,
)
from .predictor import DepthField, TrainConfig, backward, forward_arrays, init_random


class Regime(enum.Enum):
    SUPERVISED_GT = "supervised-gt"
    SUPERVISED_SFM = "supervised-sfm"
    SELF_SUPERVISED = "self-supervised"
    PLAIN_STUDENT = "plain-student"
    UNCERTAIN_STUDENT = "uncertain-student"


class NumericFailure(RuntimeError):
    """The loss or a gradient step became non-finite; carries the failing
    step, and the message also names the member's seed and learning rate.
    ``args`` holds all four, so the error survives the pickling that carries
    it out of a pool worker."""

    def __init__(self, step: int, message: str, seed: int, learning_rate: float):
        super().__init__(step, message, seed, learning_rate)
        self.step = step

    def __str__(self) -> str:
        step, message, seed, learning_rate = self.args
        return f"member seed {seed}, learning rate {learning_rate!r}, step {step}: {message}"


@dataclass(frozen=True, eq=False)
class LabeledFrame:
    """Depth-supervised sample: label map (ground truth, SfM or teacher
    depth), the labels' own std if they carry one (the uncertain student's
    teacher sigma), and an optional validity mask."""

    depth: DepthMap
    sigma: UncMap | None = None
    mask: Mask | None = None


@dataclass(frozen=True, eq=False)
class Triplet:
    """Self-supervision sample: target plus warped-source ingredients."""

    target: Image
    sources: tuple[Image, ...]
    rel_poses: tuple[Pose, ...]  # target-camera -> source-camera

    def __post_init__(self):
        if len(self.sources) != len(self.rel_poses) or not self.sources:
            raise ValueError("need equally many sources and relative poses")


def _frame_constants(frame: LabeledFrame) -> tuple:
    """What a label step reads of a frame but never changes: the float64
    label, the float64 label sigma or None, and the validity mask."""
    d, s = frame.depth, frame.sigma
    return (d.data.astype(np.float64), None if s is None else s.data.astype(np.float64),
            _mask_or_full(frame.mask, d.height, d.width))


def _triplet_constants(trip: Triplet, K: CameraIntrinsics, pcfg: PhotometricConfig) -> tuple:
    """What a self-supervised step reads of a triplet but never changes:
    the target's (c, h, w) float64 planes and their SSIM moments, the
    sources' planes and poses, the :func:`warp_basis` of each pose, and the
    target's smoothness edge weights."""
    target = trip.target.planes()
    return (
        target, _ssim_moments(target, pcfg), tuple(src.planes() for src in trip.sources),
        trip.rel_poses,
        tuple(warp_basis(K, pose, trip.target.width, trip.target.height)
              for pose in trip.rel_poses),
        edge_weights(trip.target),
    )


@dataclass(frozen=True, eq=False)
class TrainData:
    """Regime-dependent bundle: labeled frames for the four label regimes,
    triplets plus intrinsics for self-supervision."""

    frames: tuple[LabeledFrame, ...] = ()
    triplets: tuple[Triplet, ...] = ()
    K: CameraIntrinsics | None = None
    photometric: PhotometricConfig = PhotometricConfig()

    def resolution(self) -> tuple[int, int]:
        if self.frames:
            return self.frames[0].depth.width, self.frames[0].depth.height
        if self.triplets:
            t = self.triplets[0].target
            return t.width, t.height
        raise ValueError("empty training bundle")

    @functools.cached_property
    def _label_constants(self) -> tuple[tuple, ...]:
        """Per-frame constants of the label step, built on first use and
        kept for the lifetime of the bundle."""
        return tuple(_frame_constants(f) for f in self.frames)

    @functools.cached_property
    def _selfsup_constants(self) -> tuple[tuple, ...]:
        """Per-triplet constants of the self-supervised step, built on first
        use and kept for the lifetime of the bundle."""
        return tuple(_triplet_constants(t, self.K, self.photometric)
                     for t in self.triplets)


@dataclass(frozen=True, eq=False)
class TrainReport:
    losses: np.ndarray
    wall_clock: float
    seed: int

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write("step,loss\r\n")
            for i, v in enumerate(self.losses):
                f.write(f"{i},{float(v)!r}\r\n")


def _check_bundle(regime: Regime, data: TrainData) -> None:
    """The one place that ties a regime to the data it needs: triplets and
    intrinsics for self-supervision, labeled frames otherwise, with a
    std-kind label sigma on every frame for the uncertain student and on
    none for the other label regimes."""
    if not isinstance(regime, Regime):
        raise ValueError(f"unknown regime {regime!r}, expected a Regime")
    if regime == Regime.SELF_SUPERVISED:
        if not data.triplets or data.K is None:
            raise ValueError("self-supervised training needs triplets and intrinsics")
        return
    if not data.frames:
        raise ValueError(f"{regime.value} needs labeled frames")
    for f in data.frames:
        if regime != Regime.UNCERTAIN_STUDENT:
            if f.sigma is not None:
                raise ValueError(f"{regime.value} takes no label sigma maps")
        elif f.sigma is None:
            raise ValueError("uncertain-student needs teacher sigma maps")
        elif f.sigma.kind != "std":
            raise ValueError("teacher sigma must be std-kind")


@dataclass(frozen=True, eq=False)
class _Objective:
    """Scalar MAP loss and its gradient with respect to the grids.

    ``fingerprint`` optionally captures every integer-valued switch of the
    piecewise-smooth objective (L1 signs, clamp gates, bilinear cell
    indices, warp validity, argmin selections, smoothness signs).  Two
    parameter points with equal fingerprints lie on the same smooth piece.
    """

    loss: float
    grad_log_depth: np.ndarray
    grad_log_sigma: np.ndarray
    fingerprint: tuple | None = None


def _fingerprints_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _label_term(const, d_hat, sigma, loss_cfg, n, total, grad_d, grad_s, marks) -> float:
    """Add one labeled frame's 1/n share of the data term to the running
    sums: return the new total, add into ``grad_d`` and ``grad_s`` in place
    and, when ``marks`` is a list, append the frame's L1 signs."""
    label, sigma_label, valid = const
    lv = supervised_nll_arrays(label, d_hat, sigma, valid, loss_cfg, sigma_label)
    if marks is not None:
        marks.append(np.sign(label - d_hat).astype(np.int8) * valid)
    grad_d += lv.grad_depth / n
    grad_s += lv.grad_sigma / n
    return total + lv.scalar / n


def _triplet_term(K, pcfg, const, d_hat, u_hat, loss_cfg, n, total, grad_d, grad_u,
                  marks) -> float:
    """:func:`_label_term` for one triplet: the photometric term through the
    warp of its argmin source, plus the edge-aware smoothness term.  Marks
    are the warp validity, bilinear cells and L1 signs of every source, the
    argmin and the smoothness signs."""
    tgt, tgt_moments, sources, poses, bases, weights = const
    alpha = pcfg.alpha
    nchan = tgt.shape[0]
    warps, jacobians = [], []
    for src, pose, basis in zip(sources, poses, bases):
        xs, ys, in_front, dxd, dyd = warp_from_basis(d_hat, K, pose, basis)
        vals, ddx, ddy, samp_ok = bilinear_sample_planes(src, xs, ys)
        valid = in_front & samp_ok
        warps.append((vals, valid))
        jacobians.append((ddx, ddy, dxd, dyd))
        if marks is not None:
            marks.append(valid.astype(np.int8))
            marks.append(np.floor(np.where(valid, xs, -1)).astype(np.int32))
            marks.append(np.floor(np.where(valid, ys, -1)).astype(np.int32))
            marks.append(np.sign(tgt - vals).astype(np.int8) * valid)
    f_p, valid_px, arg, terms = photometric_residual_arrays(tgt, tgt_moments, warps, pcfg)
    if marks is not None:
        marks.append(arg.astype(np.int8))
    lv = selfsup_nll_arrays(f_p, u_hat, valid_px, loss_cfg)
    total += lv.scalar / n
    grad_u += lv.grad_sigma / n
    # route d(scalar)/d(F_p) through the argmin source only
    for s_idx, ((vals, valid), (ddx, ddy, dxd, dyd)) in enumerate(zip(warps, jacobians)):
        up = np.where(arg == s_idx, lv.grad_depth, 0.0) / n
        if not np.any(up):
            continue
        g_vals = (1 - alpha) / nchan * (-np.sign(tgt - vals)) * up
        g_vals += ssim_backward_channel(terms[s_idx], -0.5 * alpha / nchan * up, pcfg)
        d_dd = (g_vals * ddx).sum(axis=0) * dxd + (g_vals * ddy).sum(axis=0) * dyd
        grad_d += np.where(valid, d_dd, 0.0)
    if loss_cfg.lambda_u > 0:
        smooth, smooth_grad = smoothness_and_grad(d_hat, weights)
        total += loss_cfg.lambda_u * smooth.mean() / n
        grad_d += loss_cfg.lambda_u * smooth_grad / n
        if marks is not None:
            marks.append(np.sign(np.diff(d_hat, axis=1)).astype(np.int8))
            marks.append(np.sign(np.diff(d_hat, axis=0)).astype(np.int8))
    return total


def _objective(
    regime: Regime, data: TrainData, field: DepthField, loss_cfg: LossConfig,
    w: int, h: int, collect_fingerprint: bool = False,
) -> _Objective:
    """The MAP loss of every regime: one forward pass, the data term of each
    frame or triplet from the bundle's per-run constants, one backward pass
    and the weight prior.  ``regime`` must have passed :func:`_check_bundle`."""
    if regime == Regime.SELF_SUPERVISED:
        consts = data._selfsup_constants
        term = functools.partial(_triplet_term, data.K, data.photometric)
    else:
        consts, term = data._label_constants, _label_term
    d_hat, sigma = forward_arrays(field, w, h)
    total = 0.0
    grad_d = np.zeros((h, w))
    grad_s = np.zeros((h, w))
    marks = [(sigma > loss_cfg.sigma_min).astype(np.int8)] if collect_fingerprint else None
    for const in consts:
        total = term(const, d_hat, sigma, loss_cfg, len(consts), total, grad_d, grad_s, marks)
    g_ld, g_ls = backward(field, grad_d, grad_s, d_hat, sigma)
    if loss_cfg.weight_decay > 0:
        p_loss, p_grad = prior_loss(field.params(), loss_cfg)
        n = field.log_depth.size
        total += p_loss
        g_ld += p_grad[:n].reshape(field.log_depth.shape)
        g_ls += p_grad[n:].reshape(field.log_sigma.shape)
    return _Objective(total, g_ld, g_ls, None if marks is None else tuple(marks))


def train_member(
    regime: Regime, data: TrainData, cfg: TrainConfig
) -> tuple[DepthField, TrainReport]:
    """Run ``cfg.steps`` fixed-rate gradient-descent steps from a seeded
    random field; deterministic given (regime, data, cfg)."""
    _check_bundle(regime, data)
    # without this, each 256x256 step faults its freed temporaries back in
    keep_heap_mapped()
    w, h = data.resolution()
    field = init_random(cfg.seed, cfg.grid_w, cfg.grid_h, cfg.depth_init_mm, cfg.jitter)
    losses = np.empty(cfg.steps)
    t0 = time.perf_counter()
    # a diverging run overflows on its way to a non-finite loss; the checks
    # below report that once, so numpy's per-operation warnings are muted
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.steps):
            obj = _objective(regime, data, field, cfg.loss, w, h)
            if not np.isfinite(obj.loss):
                raise NumericFailure(
                    step, f"non-finite loss {obj.loss}", cfg.seed, cfg.learning_rate
                )
            losses[step] = obj.loss
            # a non-finite gradient, or a finite one that overflows once
            # scaled by the learning rate
            log_depth = field.log_depth - cfg.learning_rate * obj.grad_log_depth
            log_sigma = field.log_sigma - cfg.learning_rate * obj.grad_log_sigma
            if not (np.all(np.isfinite(log_depth)) and np.all(np.isfinite(log_sigma))):
                raise NumericFailure(
                    step, "non-finite gradient step", cfg.seed, cfg.learning_rate
                )
            field = DepthField(log_depth, log_sigma, field.seed)
    return field, TrainReport(losses, time.perf_counter() - t0, cfg.seed)


def train_ensemble(
    regime: Regime,
    data: TrainData,
    cfg: TrainConfig,
    members: int,
    base_seed: int,
    jobs: int = 1,
) -> list[tuple[DepthField, TrainReport]]:
    """Train ``members`` independent fields seeded base_seed + i, ordered by
    seed.  ``jobs`` > 1 trains members in parallel processes; results are
    identical for any jobs value."""
    if members < 1:
        raise ValueError("need at least one member")
    cfgs = [replace(cfg, seed=base_seed + i) for i in range(members)]
    if jobs > 1 and members > 1:
        # imported here: the pool pulls in multiprocessing, which no other
        # command needs at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, members)) as pool:
            return list(pool.map(train_member, repeat(regime), repeat(data), cfgs))
    return [train_member(regime, data, c) for c in cfgs]


# ---------------------------------------------------------------------------
# finite-difference audit


class KinkStraddled(RuntimeError):
    """A finite-difference probe crossed a non-smooth switch of the
    objective (L1 sign, argmin flip, bilinear cell edge, validity change or
    clamp), so central differences do not measure the analytic branch."""


def finite_diff_audit(
    regime: Regime,
    data: TrainData,
    field: DepthField,
    step: float = 1e-4,
    loss_cfg: LossConfig | None = None,
) -> float:
    """Worst relative disagreement between the assembled analytic gradient
    of the full MAP objective and central finite differences, per grid
    parameter (relative step; denominator floored at 1e-8).

    Every evaluation carries an integer fingerprint of the objective's
    piecewise switches; a probe whose fingerprint differs from the base
    point raises :class:`KinkStraddled` instead of returning a corrupted
    comparison.
    """
    if field.grid_w > 8 or field.grid_h > 8:
        raise ValueError("audit fields are limited to 8x8 grids")
    _check_bundle(regime, data)
    keep_heap_mapped()
    loss_cfg = loss_cfg if loss_cfg is not None else LossConfig()
    w, h = data.resolution()
    obj = _objective(regime, data, field, loss_cfg, w, h, collect_fingerprint=True)
    analytic = np.concatenate([obj.grad_log_depth.ravel(), obj.grad_log_sigma.ravel()])
    theta0 = field.params()
    worst = 0.0
    for i in range(theta0.size):
        hstep = step * max(1.0, abs(theta0[i]))
        probes = []
        for sgn in (1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sgn * hstep
            p = _objective(regime, data, field.with_params(theta), loss_cfg, w, h,
                           collect_fingerprint=True)
            if not _fingerprints_equal(p.fingerprint, obj.fingerprint):
                raise KinkStraddled(f"parameter {i} probe crossed a switch")
            probes.append(p.loss)
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
