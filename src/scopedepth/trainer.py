"""Gradient-descent training of depth fields on labeled frames or triplets.

A :class:`TrainData` bundle is the supervision: labeled frames (ground-truth
depth, simulated SfM labels, or a frozen teacher ensemble's depth, with or
without the teacher's std folded into the loss scale) or triplets for
multi-view photometric consistency.  Both data terms are the one
likelihood of :mod:`scopedepth.losses`.  Photometric consistency follows
the fixed Eq.-4 recipe of :mod:`scopedepth.photometry` (alpha 0.85, 3x3
SSIM windows, minimum over a triplet's sources), which computes both its
residual and that residual's derivative with respect to a warped source;
the trainer chains the latter through the warp.  Optimization is plain
fixed-step gradient descent on the MAP objective, which keeps every run
bitwise reproducible from (data, config, seed), one :class:`TrainConfig`
holding every setting of a member.  The objective computes the training
step only: the loss and its analytic gradient, warp, sampling, SSIM and
minimum-over-sources included, each loss kernel given the one setting it
reads.  The finite-difference audit of that gradient, with its record of
the objective's piecewise switches, lives with the tests in
``tests/_audit.py``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CameraIntrinsics, Pose, warp_basis, warp_from_basis
from .heap import keep_heap_mapped
from .imagery import DepthMap, Image, Mask, UncMap, bilinear_sample_planes, same_shape
from .losses import l1_nll_arrays, pixel_weights, prior_loss, supervised_nll_arrays
from .photometry import (
    edge_weights,
    photometric_residual_arrays,
    photometric_residual_backward,
    smoothness_and_grad,
    ssim_moments,
)
from .predictor import DepthField, backward, forward_arrays, init_random


class NumericFailure(RuntimeError):
    """The loss or a gradient step became non-finite; carries the failing
    step, and the message also names the member's seed and learning rate."""

    def __init__(self, step: int, message: str, seed: int, learning_rate: float):
        super().__init__(
            f"member seed {seed}, learning rate {learning_rate!r}, step {step}: {message}")
        self.step = step


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
    label, zeroed where masked so it is finite; the label variance or None;
    the :func:`pixel_weights` of the mask (every pixel if it has none)."""
    d, s, m = frame.depth, frame.sigma, frame.mask
    valid = np.full((d.height, d.width), True) if m is None else m.data
    return (np.where(valid, d.data.astype(np.float64), 0.0),
            None if s is None else np.square(s.data.astype(np.float64)), *pixel_weights(valid))


def _triplet_constants(trip: Triplet, K: CameraIntrinsics) -> tuple:
    """What a self-supervised step reads of a triplet but never changes:
    the :func:`ssim_moments` of the target's (c, h, w) float64 planes (the
    planes first), the sources' planes, the :func:`warp_basis` of each
    source's pose, and the target's smoothness edge weights."""
    return (
        ssim_moments(trip.target.planes()), tuple(src.planes() for src in trip.sources),
        tuple(warp_basis(K, pose, trip.target.width, trip.target.height)
              for pose in trip.rel_poses),
        edge_weights(trip.target),
    )


@dataclass(frozen=True, eq=False)
class TrainData:
    """The supervision of a run: labeled frames, or triplets plus
    intrinsics for self-supervision, never both."""

    frames: tuple[LabeledFrame, ...] = ()
    triplets: tuple[Triplet, ...] = ()
    K: CameraIntrinsics | None = None

    def resolution(self) -> tuple[int, int]:
        if self.frames:
            return self.frames[0].depth.width, self.frames[0].depth.height
        if self.triplets:
            t = self.triplets[0].target
            return t.width, t.height
        raise ValueError("empty training bundle")

    @functools.cached_property
    def _constants(self) -> tuple[tuple, ...]:
        """The training step's per-sample constants, one per triplet if the
        bundle has triplets and one per frame otherwise; built on first use
        and kept for the lifetime of the bundle."""
        if self.triplets:
            return tuple(_triplet_constants(t, self.K) for t in self.triplets)
        return tuple(_frame_constants(f) for f in self.frames)


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Per-step losses and the member's training wall time in seconds."""

    losses: np.ndarray
    wall_clock: float


def _check_bundle(data: TrainData) -> None:
    """What a bundle must hold: labeled frames, or triplets with intrinsics,
    never both; a std-kind label sigma on every frame or on none; and one
    shape for every raster."""
    if data.frames and data.triplets:
        raise ValueError("a training bundle holds labeled frames or triplets, not both")
    if not (data.frames or data.triplets and data.K is not None):
        raise ValueError("a training bundle needs labeled frames, or triplets and intrinsics")
    same_shape(*(m for f in data.frames for m in (f.depth, f.sigma, f.mask) if m is not None),
               *(im for t in data.triplets for im in (t.target, *t.sources)))
    sigmas = [f.sigma for f in data.frames if f.sigma is not None]
    if sigmas and len(sigmas) < len(data.frames):
        raise ValueError("a label sigma on some frames but not all")
    if any(s.kind != "std" for s in sigmas):
        raise ValueError("label sigma must be std-kind")


def _label_terms(consts, d_hat, sigma, cfg: TrainConfig) -> tuple:
    """The label data term (total, grad_d, grad_s): each frame's 1/n share
    of the likelihood, summed in frame order onto the first share."""
    n, sums = len(consts), None
    for label, var_label, weights, count in consts:
        lv = supervised_nll_arrays(label, d_hat, sigma, weights, count, cfg.sigma_min, var_label)
        # x / 1 == x, so a lone frame's share skips the divisions
        shares = [v if n == 1 else v / n for v in (lv.scalar, lv.grad_depth, lv.grad_sigma)]
        sums = shares if sums is None else [a + b for a, b in zip(sums, shares)]
    return tuple(sums)


def _triplet_terms(consts, d_hat, u_hat, cfg: TrainConfig) -> tuple:
    """:func:`_label_terms` for triplets, summed from zero: each one's
    photometric term through the warp of its argmin source, then its
    edge-aware smoothness term."""
    n = len(consts)
    total, grad_d, grad_u = 0.0, np.zeros(d_hat.shape), np.zeros(d_hat.shape)
    for tgt_moments, sources, bases, weights in consts:
        warps, jacobians = [], []
        for src, basis in zip(sources, bases):
            xs, ys, in_front, dxd, dyd = warp_from_basis(d_hat, basis)
            vals, ddx, ddy, samp_ok = bilinear_sample_planes(src, xs, ys)
            valid = in_front & samp_ok
            warps.append((vals, valid))
            jacobians.append((ddx, ddy, dxd, dyd))
        f_p, valid_px, arg, terms = photometric_residual_arrays(tgt_moments, warps)
        lv = l1_nll_arrays(f_p, u_hat, *pixel_weights(valid_px), cfg.sigma_min)  # F_p >= 0
        # x / 1 == x, so a lone triplet's share skips the divisions
        grad_fp, grad_sigma = (g if n == 1 else g / n for g in (lv.grad_depth, lv.grad_sigma))
        total += lv.scalar / n
        grad_u += grad_sigma
        # route d(scalar)/d(F_p) through the argmin source only
        for s_idx, ((_, valid), (ddx, ddy, dxd, dyd)) in enumerate(zip(warps, jacobians)):
            up = np.where(arg == s_idx, grad_fp, 0.0)
            if not np.any(up):
                continue
            g_vals = photometric_residual_backward(terms[s_idx], up)
            # (g_vals ddx).sum(0) dxd + (g_vals ddy).sum(0) dyd, in the
            # sampler's buffers
            ddx *= g_vals
            ddy *= g_vals
            d_dd = ddx.sum(axis=0)
            d_dd *= dxd
            d_dy = ddy.sum(axis=0)
            d_dy *= dyd
            d_dd += d_dy
            np.copyto(d_dd, 0.0, where=~valid)
            grad_d += d_dd
        if cfg.lambda_u > 0:
            smooth, smooth_grad = smoothness_and_grad(d_hat, weights)
            total += cfg.lambda_u * smooth.mean() / n
            smooth_grad *= cfg.lambda_u
            grad_d += smooth_grad if n == 1 else smooth_grad / n
    return total, grad_d, grad_u


def _objective(
    data: TrainData, grids: np.ndarray, cfg: TrainConfig, w: int, h: int
) -> tuple[float, np.ndarray]:
    """The MAP loss at the (2, gh, gw) parameter stack ``grids``, and its
    gradient, a stack of the same shape: one forward pass, one call of the
    bundle's data term (triplets or labeled frames) over its per-run
    constants, one backward pass and the weight prior.  ``data`` must have
    passed :func:`_check_bundle`."""
    data_terms = _triplet_terms if data.triplets else _label_terms
    d_hat, sigma = forward_arrays(grids, w, h)
    total, grad_d, grad_s = data_terms(data._constants, d_hat, sigma, cfg)
    grad = backward(grids, grad_d, grad_s, d_hat, sigma)
    if cfg.weight_decay > 0:
        p_loss, p_grad = prior_loss(grids, cfg.weight_decay)
        total += p_loss
        grad += p_grad
    return total, grad


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one member: ``steps`` fixed-rate steps on a square
    ``grid`` x ``grid`` field initialised around ``depth_init_mm``
    (:func:`init_random`), minimising the likelihood with its scale clamped
    at ``sigma_min``, the smoothness term weighted by ``lambda_u`` and the
    weight prior by ``weight_decay``."""

    steps: int = 800
    learning_rate: float = 1.0
    grid: int = 16
    depth_init_mm: float = 30.0
    jitter: float = 0.05
    sigma_min: float = 1e-3
    lambda_u: float = 0.01
    weight_decay: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name in ("learning_rate", "depth_init_mm"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("jitter", "sigma_min", "lambda_u", "weight_decay"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma_min <= 0:
            raise ValueError("sigma_min must be positive")
        if self.lambda_u < 0 or self.weight_decay < 0:
            raise ValueError("lambda_u and weight_decay must be >= 0")
        if self.grid < 1:
            raise ValueError(f"grid must be at least 1 cell a side, got {self.grid}")


def train_member(data: TrainData, cfg: TrainConfig) -> tuple[DepthField, TrainReport]:
    """Run ``cfg.steps`` fixed-rate gradient-descent steps from a seeded
    random field; deterministic given (data, cfg)."""
    _check_bundle(data)
    # without this, each 256x256 step faults its freed temporaries back in
    keep_heap_mapped()
    w, h = data.resolution()
    grids = init_random(cfg.seed, cfg.grid, cfg.grid, cfg.depth_init_mm, cfg.jitter).grids
    losses = np.empty(cfg.steps)
    t0 = time.perf_counter()
    # a diverging run overflows on its way to a non-finite loss; the checks
    # below report that once, so numpy's per-operation warnings are muted
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.steps):
            loss, grad = _objective(data, grids, cfg, w, h)
            if not np.isfinite(loss):
                raise NumericFailure(step, f"non-finite loss {loss}", cfg.seed, cfg.learning_rate)
            losses[step] = loss
            grids = grids - cfg.learning_rate * grad
            # a non-finite gradient, or a finite one that overflows once
            # scaled by the learning rate
            if not np.all(np.isfinite(grids)):
                raise NumericFailure(
                    step, "non-finite gradient step", cfg.seed, cfg.learning_rate)
    return DepthField(grids, cfg.seed), TrainReport(losses, time.perf_counter() - t0)


def train_ensemble(
    data: TrainData, cfg: TrainConfig, members: int
) -> list[tuple[DepthField, TrainReport]]:
    """Train ``members`` independent fields, member i as :func:`train_member`
    with seed ``cfg.seed + i``, one after another in the calling process,
    ordered by seed.

    The members share ``data`` and so its per-run constants, which are
    built once.  A process pool is no faster here: on a 2-vCPU host two
    busy processes each ran at about half speed, and members trained in
    pool workers took 2-2.5x as long as in-process."""
    if members < 1:
        raise ValueError("need at least one member")
    return [train_member(data, replace(cfg, seed=cfg.seed + i))
            for i in range(members)]
