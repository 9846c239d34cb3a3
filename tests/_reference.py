"""Test-only oracles: scalar references for the vectorized sampler and
warp, and the (h, w, c) self-supervised objective as it stood before the
step moved to channel-first planes and per-run constants.

The scalar functions (:func:`bilinear_sample`, :func:`project`,
:func:`backproject`, :func:`warp_pixel`) state the camera model and the
sampling rule one point at a time; the tests compare the vectorized
library code against them.  :func:`_selfsup_objective` and the helpers
above it are kept as they stood, so a test can assert that the library's
objective reproduces its loss and gradients bit for bit.

:func:`ssim_moments`, :func:`ssim_terms` and :func:`ssim_backward_channel`
are SSIM's forward and backward as they stood before the target's per-run
terms grew and the backward took its partials from the forward; the
reference objective runs on them, so a change to the library's SSIM shows
as a changed bit.

The two likelihoods are kept as they stood before the mask became a
per-run 0/1 weight map and the uncertain student's scale became
``sqrt(var_label + s_a^2)``: a bool mask applied by ``np.where`` and the
scale ``np.hypot(sigma_label, s_a)``.  :func:`_label_objective` is the
labeled frames' data term built on them, reading every frame each step and
summing into zero-filled maps.  :func:`weighted_l1_nll_arrays` is the one
kernel that replaced them, as it stood before it skipped all-ones weights
and an idle clamp: it always clamps and gates the scale, and always
multiplies by a 0/1 weight map.

The predictor is kept as it stood before its two grids became one
(2, gh, gw) stack: :func:`forward_pair`, :func:`backward_pair` and
:func:`prior_pair` upsample, back-project and regularise each grid on its
own, and :func:`train_member` steps the two grids apart.  The reference
objectives run on them, so a test can hold the stacked step and the whole
training loop to the per-grid ones bit for bit.

:func:`wall_field` and :func:`wall_shade` are the renderer's wall
geometry in its plain form: the field with ``np.hypot`` and the ridge as
``R - A (0.5 + 0.5 cos(2 pi z / P))``, and shading that finds the axis
centre once for the normal and once more for the albedo, whose angle it
takes from ``arctan2``.  The tests hold the renderer's rays and bytes
against them.
"""

from __future__ import annotations

import numpy as np

from scopedepth import synthcolon
from scopedepth.geometry import EPS_Z, CameraIntrinsics, Pose, pixel_rays
from scopedepth.imagery import DepthMap, Image
from scopedepth.losses import LossValue
from scopedepth.losses import supervised_nll_arrays as library_nll
from scopedepth.photometry import _ALPHA, _C1, _C2, box_filter
from scopedepth.predictor import _axis_matrix, init_random
from scopedepth.trainer import NumericFailure, TrainConfig, TrainData


class BehindCameraError(ValueError):
    """Projection of a point at or behind the camera plane."""


class InvalidDepthError(ValueError):
    """Back-projection with non-positive depth."""


def project(K: CameraIntrinsics, P) -> tuple[float, float]:
    """Project camera-frame point P (mm) to continuous pixel coordinates."""
    P = np.asarray(P, dtype=np.float64)
    if P[2] <= EPS_Z:
        raise BehindCameraError(f"point z={P[2]} behind near plane")
    return (K.fx * P[0] / P[2] + K.cx, K.fy * P[1] / P[2] + K.cy)


def backproject(K: CameraIntrinsics, j, d: float) -> np.ndarray:
    """Lift pixel j=(x, y) at depth d (mm) to a camera-frame 3D point."""
    if d <= 0:
        raise InvalidDepthError(f"depth {d} must be positive")
    x, y = float(j[0]), float(j[1])
    return np.array([(x - K.cx) * d / K.fx, (y - K.cy) * d / K.fy, d])


def warp_pixel(
    j, d: float, K: CameraIntrinsics, pose: Pose, width: int | None = None,
    height: int | None = None,
) -> tuple[tuple[float, float], bool]:
    """Reproject target pixel j with depth d into the source view.

    Returns ((x', y'), valid); valid is False when the transformed point
    falls at or behind the source near plane, or (when width/height are
    given) outside the source image domain [0, w-1] x [0, h-1].
    """
    if d <= 0:
        raise InvalidDepthError(f"depth {d} must be positive")
    P = pose.rotation @ backproject(K, j, d) + pose.translation
    if P[2] <= EPS_Z:
        return (0.0, 0.0), False
    u = K.fx * P[0] / P[2] + K.cx
    v = K.fy * P[1] / P[2] + K.cy
    if width is not None and height is not None:
        if not (0.0 <= u <= width - 1 and 0.0 <= v <= height - 1):
            return (u, v), False
    return (u, v), True


def warp_coordinates(
    d: np.ndarray, K: CameraIntrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized warp of every pixel of a depth array into the source view.

    Returns (xs, ys, in_front, dx_dd, dy_dd) where xs/ys are source-view
    coordinates, in_front flags transformed points with z above the near
    plane, and dx_dd/dy_dd are d(x')/d(depth) and d(y')/d(depth) per pixel,
    used by gradient-based training.  Bounds checking against the source
    raster happens at sampling time.
    """
    h, w = d.shape
    rays = pixel_rays(K, w, h)
    q = rays @ pose.rotation.T  # rotated ray per pixel
    t = pose.translation
    P = q * d[..., None] + t
    z = P[..., 2]
    in_front = z > EPS_Z
    zsafe = np.where(in_front, z, 1.0)
    xs = K.fx * P[..., 0] / zsafe + K.cx
    ys = K.fy * P[..., 1] / zsafe + K.cy
    # d(u)/d(depth) = fx (qx tz - tx qz) / z^2 ; numerator is depth-free
    dx_dd = K.fx * (q[..., 0] * t[2] - t[0] * q[..., 2]) / zsafe**2
    dy_dd = K.fy * (q[..., 1] * t[2] - t[1] * q[..., 2]) / zsafe**2
    return xs, ys, in_front, dx_dd, dy_dd


def bilinear_sample(img: Image, x: float, y: float) -> tuple[np.ndarray, bool]:
    """Sample ``img`` at continuous pixel coordinates (x, y).

    Pixel centers sit at integer coordinates; the sample is valid only when
    the full 2x2 interpolation footprint stays inside [0, w-1] x [0, h-1].
    Returns (per-channel color, valid).  Out-of-bounds samples return zeros
    with valid=False rather than clamping.
    """
    h, w = img.height, img.width
    c = img.data.shape[2]
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        return np.zeros(c, dtype=np.float64), False
    x0 = min(int(np.floor(x)), w - 2) if w > 1 else 0
    y0 = min(int(np.floor(y)), h - 2) if h > 1 else 0
    fx = x - x0
    fy = y - y0
    d = img.data.astype(np.float64)
    x1 = min(x0 + 1, w - 1)
    y1 = min(y0 + 1, h - 1)
    c00 = d[y0, x0]
    c10 = d[y0, x1]
    c01 = d[y1, x0]
    c11 = d[y1, x1]
    top = c00 * (1 - fx) + c10 * fx
    bot = c01 * (1 - fx) + c11 * fx
    return top * (1 - fy) + bot * fy, True


def bilinear_sample_map(
    img: Image, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`bilinear_sample` over coordinate arrays, with the
    spatial derivatives of the interpolant.

    Returns (values, d/dx, d/dy, valid): the first three have shape
    xs.shape + (channels,), the derivatives taken inside the sample's
    bilinear cell; valid is a bool array.  Invalid locations hold zeros.
    """
    h, w = img.height, img.width
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    valid = (xs >= 0.0) & (xs <= w - 1) & (ys >= 0.0) & (ys <= h - 1)
    xc = np.clip(np.where(valid, xs, 0.0), 0.0, max(w - 1, 0))
    yc = np.clip(np.where(valid, ys, 0.0), 0.0, max(h - 1, 0))
    x0 = np.minimum(np.floor(xc).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(yc).astype(np.int64), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xc - x0)[..., None]
    fy = (yc - y0)[..., None]
    d = img.data.astype(np.float64)
    c00 = d[y0, x0]
    c10 = d[y0, x1]
    c01 = d[y1, x0]
    c11 = d[y1, x1]
    out = (c00 * (1 - fx) + c10 * fx) * (1 - fy) + (c01 * (1 - fx) + c11 * fx) * fy
    ddx = (c10 - c00) * (1 - fy) + (c11 - c01) * fy
    ddy = (c01 - c00) * (1 - fx) + (c11 - c10) * fx
    out[~valid] = 0.0
    ddx[~valid] = 0.0
    ddy[~valid] = 0.0
    return out, ddx, ddy, valid


def ssim_moments(x: np.ndarray) -> tuple:
    """Windowed mean and windowed second moment of a channel (stack)."""
    return box_filter(x), box_filter(x * x)


def ssim_terms(
    a: np.ndarray, b: np.ndarray, a_moments: tuple[np.ndarray, np.ndarray]
) -> tuple:
    """One pass over the windowed statistics of float64 (h, w) channels or
    (c, h, w) channel stacks: returns (S, a, b, mu_a, mu_b, A1, A2, B1, B2),
    the per-channel SSIM map S = (A1 A2) / (B1 B2) followed by what
    :func:`ssim_backward_channel` needs to differentiate it.  ``a_moments``
    are the :func:`ssim_moments` of ``a``, which training computes once
    per run."""
    mu_a, a2 = a_moments
    mu_b, b2 = ssim_moments(b)
    var_a = a2 - mu_a**2
    var_b = b2 - mu_b**2
    cov = box_filter(a * b) - mu_a * mu_b
    A1 = 2 * mu_a * mu_b + _C1
    A2 = 2 * cov + _C2
    B1 = mu_a**2 + mu_b**2 + _C1
    B2 = var_a + var_b + _C2
    return (A1 * A2) / (B1 * B2), a, b, mu_a, mu_b, A1, A2, B1, B2


def ssim_backward_channel(terms: tuple, upstream: np.ndarray) -> np.ndarray:
    """d(sum(upstream * ssim(a, b)))/db per channel, a held fixed, from the
    :func:`ssim_terms` of (a, b); an (h, w) ``upstream`` broadcasts over a
    (c, h, w) stack.  The statistics pass back through :func:`box_filter`,
    its own adjoint."""
    S, a, b, mu_a, mu_b, A1, A2, B1, B2 = terms
    dS_dA1 = A2 / (B1 * B2)
    dS_dA2 = A1 / (B1 * B2)
    dS_dB1 = -S / B1
    dS_dB2 = -S / B2
    # mu_b feeds A1 directly and A2, B1, B2 through cov / mu_b^2 terms
    g_mu = upstream * (
        dS_dA1 * 2 * mu_a + dS_dA2 * (-2 * mu_a) + dS_dB1 * 2 * mu_b + dS_dB2 * (-2 * mu_b)
    )
    g_eab = upstream * dS_dA2 * 2
    g_eb2 = upstream * dS_dB2
    return (
        box_filter(g_mu)
        + box_filter(g_eab) * a
        + box_filter(g_eb2) * 2 * b
    )


def photometric_residual_arrays(
    tgt: np.ndarray,
    warps: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Minimum-over-sources photometric error of Eq.-4 form on arrays.

    ``tgt`` is the (h, w, c) float64 target and each warp a pair of the
    (h, w, c) float64 warped source and its (h, w) bool validity.  Per
    pixel and per valid source the candidate is
    ``(1-alpha) * L1 + (alpha/2) * (1-SSIM)`` at alpha = ``_ALPHA``, with
    L1 the channel-mean absolute difference; the residual keeps the
    smallest candidate, and a pixel is valid when at least one source is.

    Returns (f_p, valid, argmin source index (-1 where invalid), one
    :func:`ssim_terms` tuple of (c, h, w) stacks per source).
    """
    if not warps:
        raise ValueError("need at least one warped source")
    alpha = _ALPHA
    # the target's moments do not depend on the source
    tgt_c = np.moveaxis(tgt, 2, 0)
    tgt_moments = ssim_moments(tgt_c)
    candidates = []
    terms = []
    for vals, valid in warps:
        l1 = np.abs(tgt - vals).mean(axis=2)
        t = ssim_terms(tgt_c, np.moveaxis(vals, 2, 0), tgt_moments)
        cand = (1 - alpha) * l1 + 0.5 * alpha * (1 - t[0].mean(axis=0))
        candidates.append(np.where(valid, cand, np.inf))
        terms.append(t)
    stack = np.stack(candidates, axis=0)
    arg = np.argmin(stack, axis=0)
    f_p = np.min(stack, axis=0)
    valid = np.isfinite(f_p)
    f_p = np.where(valid, f_p, 0.0)
    arg = np.where(valid, arg, -1)
    return f_p, valid, arg, terms


def _smoothness_inputs(d, I: Image) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Depth as float64, its mean, and the edge weights exp(-|dx gray|),
    exp(-|dy gray|) (one in the last column/row); raises when mean depth
    is not positive or the depth and image dimensions disagree."""
    darr = np.asarray(d.data if isinstance(d, DepthMap) else d, dtype=np.float64)
    mu = darr.mean()
    if mu <= 0:
        raise ValueError("mean depth must be positive")
    gray = I.gray()
    if gray.shape != darr.shape:
        raise ValueError("depth and image dimensions disagree")
    wx = np.ones_like(gray)
    wy = np.ones_like(gray)
    wx[:, :-1] = np.exp(-np.abs(np.diff(gray, axis=1)))
    wy[:-1, :] = np.exp(-np.abs(np.diff(gray, axis=0)))
    return darr, mu, wx, wy


def edge_aware_smoothness(d, I: Image) -> np.ndarray:
    """Edge-weighted first-order smoothness of mean-normalized depth.

    With d* = d / mean(d) and forward differences (zero in the last
    row/column):  |dx d*| exp(-|dx gray|) + |dy d*| exp(-|dy gray|).
    Raises when mean depth is not positive or the shapes disagree.
    """
    darr, mu, wx, wy = _smoothness_inputs(d, I)
    dn = darr / mu
    gx = np.zeros_like(dn)
    gy = np.zeros_like(dn)
    gx[:, :-1] = np.abs(np.diff(dn, axis=1))
    gy[:-1, :] = np.abs(np.diff(dn, axis=0))
    return gx * wx + gy * wy


def edge_aware_smoothness_grad(d, I: Image) -> np.ndarray:
    """d(mean(edge_aware_smoothness))/d(depth[j]), including the coupling
    through the mean normalization.  Sign of a zero difference is taken
    as zero."""
    darr, mu, wx, wy = _smoothness_inputs(d, I)
    n = darr.size
    sx = np.zeros_like(darr)
    sy = np.zeros_like(darr)
    sx[:, :-1] = np.sign(np.diff(darr, axis=1))
    sy[:-1, :] = np.sign(np.diff(darr, axis=0))
    t_raw = (np.abs(np.diff(darr, axis=1)) * wx[:, :-1]).sum() + (
        np.abs(np.diff(darr, axis=0)) * wy[:-1, :]
    ).sum()
    # dT/dd: the pixel loses its own forward differences, gains its
    # predecessors'
    gterm = -(sx * wx) - (sy * wy)
    gterm[:, 1:] += (sx * wx)[:, :-1]
    gterm[1:, :] += (sy * wy)[:-1, :]
    return gterm / (n * mu) - t_raw / (n * n * mu * mu)


def _reduce(term: np.ndarray, valid: np.ndarray) -> tuple[float, int]:
    n = int(valid.sum())
    if n == 0:
        raise ValueError("no valid pixels")
    return float(np.where(valid, term, 0.0).sum() / n), n


def supervised_nll_arrays(
    d: np.ndarray,
    d_hat: np.ndarray,
    sigma_a: np.ndarray,
    valid: np.ndarray,
    sigma_min: float,
    sigma_label: np.ndarray | None = None,
) -> LossValue:
    """The label likelihood with a bool mask that ``np.where`` applies and
    the scale ``hypot(sigma_label, clamp(sigma_a))``."""
    s_a = np.maximum(sigma_a, sigma_min)
    gate = (sigma_a > sigma_min).astype(np.float64)
    s = s_a if sigma_label is None else np.hypot(sigma_label, s_a)
    r = d - d_hat
    abs_r = np.abs(r)
    term = abs_r / s + np.log(s)
    scalar, n = _reduce(term, valid)
    v = valid.astype(np.float64)
    grad_depth = -np.sign(r) / s * v / n
    d_s = -abs_r / s**2 + 1.0 / s
    if sigma_label is not None:
        d_s = d_s * (s_a / s)
    grad_sigma = d_s * gate * v / n
    return LossValue(scalar, grad_depth, grad_sigma)


def selfsup_nll_arrays(
    f_p: np.ndarray, u_hat: np.ndarray, valid: np.ndarray, sigma_min: float
) -> LossValue:
    """The photometric likelihood with a bool mask that ``np.where`` applies."""
    u = np.maximum(u_hat, sigma_min)
    gate = (u_hat > sigma_min).astype(np.float64)
    term = f_p / u + np.log(u)
    scalar, n = _reduce(term, valid)
    v = valid.astype(np.float64)
    grad_fp = (1.0 / u) * v / n
    grad_sigma = (-f_p / u**2 + 1.0 / u) * gate * v / n
    return LossValue(scalar, grad_fp, grad_sigma)


def weighted_l1_nll_arrays(
    residual: np.ndarray, scale: np.ndarray, weights: np.ndarray, n: int, sigma_min: float,
    var_label: np.ndarray | None = None,
) -> LossValue:
    """The heteroscedastic L1 kernel with its clamp, gate and weight map
    applied at every pixel, whether or not they change any."""
    s_a = np.maximum(scale, sigma_min)
    gate = (scale > sigma_min).astype(np.float64)
    s = s_a if var_label is None else s_a * s_a + var_label
    if var_label is not None:
        np.sqrt(s, out=s)
    term = residual / s + np.log(s)
    term *= weights
    scalar = float(term.sum() / n)
    inv_s = 1.0 / s
    grad_r = inv_s * weights / n
    d_s = inv_s - residual / s**2
    if var_label is not None:
        d_s *= s_a / s
    return LossValue(scalar, grad_r, d_s * gate * weights / n)


def forward_pair(log_depth: np.ndarray, log_sigma: np.ndarray, w: int,
                 h: int) -> tuple[np.ndarray, np.ndarray]:
    """(depth, sigma) maps, one ``exp(Wy @ grid @ Wx.T)`` per grid."""
    def up(grid):
        gh, gw = grid.shape
        return _axis_matrix(h, gh) @ grid @ _axis_matrix(w, gw).T
    return np.exp(up(log_depth)), np.exp(up(log_sigma))


def backward_pair(log_depth: np.ndarray, grad_depth: np.ndarray, grad_sigma: np.ndarray,
                  d: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel gradients chained to each grid, one ``Wy.T @ g @ Wx`` each."""
    gh, gw = log_depth.shape
    def adjoint(grad):
        h, w = grad.shape
        return _axis_matrix(h, gh).T @ grad @ _axis_matrix(w, gw)
    return adjoint(np.asarray(grad_depth) * d), adjoint(np.asarray(grad_sigma) * s)


def prior_pair(log_depth: np.ndarray, log_sigma: np.ndarray,
               weight_decay: float) -> tuple[float, np.ndarray, np.ndarray]:
    """weight_decay * sum(theta^2) over the concatenated grids, and its
    gradient split back into the two grids."""
    theta = np.concatenate([log_depth.ravel(), log_sigma.ravel()])
    grad = 2.0 * weight_decay * theta
    n = log_depth.size
    return (weight_decay * float((theta**2).sum()), grad[:n].reshape(log_depth.shape),
            grad[n:].reshape(log_sigma.shape))


def _label_shares(log_depth: np.ndarray, log_sigma: np.ndarray, data: TrainData, w: int,
                  h: int, cfg: TrainConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """The labeled frames' data term on the bundle's per-run constants: each
    frame's 1/n share of the library likelihood, the first share becoming
    the running sums."""
    d_hat, sigma = forward_pair(log_depth, log_sigma, w, h)
    n = len(data._constants)
    sums = None
    for label, var_label, weights, count in data._constants:
        lv = library_nll(label, d_hat, sigma, weights, count, cfg.sigma_min, var_label)
        if sums is None:
            sums = [lv.scalar / n, lv.grad_depth / n, lv.grad_sigma / n]
            continue
        sums[0] += lv.scalar / n
        sums[1] += lv.grad_depth / n
        sums[2] += lv.grad_sigma / n
    total, grad_d, grad_s = sums
    return total, *backward_pair(log_depth, grad_d, grad_s, d_hat, sigma)


def train_member(data: TrainData,
                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training loop with the two grids stepped apart: the
    self-supervised data term of :func:`_selfsup_objective` for a bundle of
    triplets or the label one of :func:`_label_shares`, plus
    :func:`prior_pair`.  Returns the final log-depth and log-scale grids
    and the loss of every step."""
    w, h = data.resolution()
    data_term = _selfsup_objective if data.triplets else _label_shares
    init = init_random(cfg.seed, cfg.grid, cfg.grid, cfg.depth_init_mm, cfg.jitter)
    log_depth, log_sigma = init.log_depth, init.log_sigma
    losses = np.empty(cfg.steps)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(cfg.steps):
            total, g_ld, g_ls = data_term(log_depth, log_sigma, data, w, h, cfg)
            if cfg.weight_decay > 0:
                p_loss, p_ld, p_ls = prior_pair(log_depth, log_sigma, cfg.weight_decay)
                total += p_loss
                g_ld += p_ld
                g_ls += p_ls
            if not np.isfinite(total):
                raise NumericFailure(step, "non-finite loss", cfg.seed, cfg.learning_rate)
            losses[step] = total
            log_depth = log_depth - cfg.learning_rate * g_ld
            log_sigma = log_sigma - cfg.learning_rate * g_ls
            if not (np.all(np.isfinite(log_depth)) and np.all(np.isfinite(log_sigma))):
                raise NumericFailure(step, "non-finite gradient step", cfg.seed,
                                     cfg.learning_rate)
    return log_depth, log_sigma, losses


def _label_objective(
    log_depth: np.ndarray, log_sigma: np.ndarray, data: TrainData, w: int, h: int,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The labeled frames' data term, read from the frames each step and
    summed into zero-filled maps."""
    d_hat, sigma = forward_pair(log_depth, log_sigma, w, h)
    total = 0.0
    grad_d = np.zeros((h, w))
    grad_s = np.zeros((h, w))
    n = len(data.frames)
    for f in data.frames:
        valid = np.full((h, w), True) if f.mask is None else f.mask.data
        sigma_label = None if f.sigma is None else f.sigma.data.astype(np.float64)
        lv = supervised_nll_arrays(f.depth.data.astype(np.float64), d_hat, sigma, valid,
                                   cfg.sigma_min, sigma_label)
        grad_d += lv.grad_depth / n
        grad_s += lv.grad_sigma / n
        total += lv.scalar / n
    return total, *backward_pair(log_depth, grad_d, grad_s, d_hat, sigma)


def _selfsup_objective(
    log_depth: np.ndarray, log_sigma: np.ndarray, data: TrainData, w: int, h: int,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    alpha = _ALPHA
    d_hat, u_hat = forward_pair(log_depth, log_sigma, w, h)
    total = 0.0
    grad_d = np.zeros((h, w))
    grad_u = np.zeros((h, w))
    nt = len(data.triplets)
    for trip in data.triplets:
        tgt = trip.target.data.astype(np.float64)
        nchan = tgt.shape[2]
        warps, jacobians = [], []
        for I_src, pose in zip(trip.sources, trip.rel_poses):
            xs, ys, in_front, dxd, dyd = warp_coordinates(d_hat, data.K, pose)
            vals, ddx, ddy, samp_ok = bilinear_sample_map(I_src, xs, ys)
            valid = in_front & samp_ok
            warps.append((vals, valid))
            jacobians.append((ddx, ddy, dxd, dyd))
        f_p, valid_px, arg, terms = photometric_residual_arrays(tgt, warps)
        lv = selfsup_nll_arrays(f_p, u_hat, valid_px, cfg.sigma_min)
        total += lv.scalar / nt
        grad_u += lv.grad_sigma / nt
        # route d(scalar)/d(F_p) through the argmin source only
        for s_idx, ((vals, valid), (ddx, ddy, dxd, dyd)) in enumerate(
            zip(warps, jacobians)
        ):
            up = np.where(arg == s_idx, lv.grad_depth, 0.0) / nt
            if not np.any(up):
                continue
            g_vals = (1 - alpha) / nchan * (-np.sign(tgt - vals)) * up[..., None]
            g_vals += np.moveaxis(ssim_backward_channel(
                terms[s_idx], -0.5 * alpha / nchan * up), 0, 2)
            d_dd = (g_vals * ddx).sum(axis=2) * dxd + (g_vals * ddy).sum(axis=2) * dyd
            grad_d += np.where(valid, d_dd, 0.0)
        if cfg.lambda_u > 0:
            total += cfg.lambda_u * edge_aware_smoothness(d_hat, trip.target).mean() / nt
            grad_d += cfg.lambda_u * edge_aware_smoothness_grad(d_hat, trip.target) / nt
    return total, *backward_pair(log_depth, grad_d, grad_u, d_hat, u_hat)


def _ridge_radius(params, z):
    bump = 0.5 + 0.5 * np.cos(2.0 * np.pi * np.asarray(z, np.float64) / params.ridge_period_mm)
    return params.radius_mm - params.ridge_amp_mm * bump


def wall_field(params, points):
    """:func:`scopedepth.synthcolon.surface_field` with ``np.hypot``."""
    p = np.asarray(points, dtype=np.float64)
    cx, cy = synthcolon._axis_center(params, p[..., 2])
    rho = np.hypot(p[..., 0] - cx, p[..., 1] - cy)
    return _ridge_radius(params, p[..., 2]) - rho


def _surface_normal(params, points):
    p = np.asarray(points, dtype=np.float64)
    cx, cy = synthcolon._axis_center(params, p[..., 2])
    dx = p[..., 0] - cx
    dy = p[..., 1] - cy
    rho = np.maximum(np.hypot(dx, dy), 1e-12)
    ux = dx / rho
    uy = dy / rho
    dcx, dcy = synthcolon._axis_tangent(params, p[..., 2])
    gz = synthcolon._ridge_radius_dz(params, p[..., 2]) + ux * dcx + uy * dcy
    g = np.stack([-ux, -uy, gz], axis=-1)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _albedo(params, points):
    p = np.asarray(points, dtype=np.float64)
    cx, cy = synthcolon._axis_center(params, p[..., 2])
    dx = p[..., 0] - cx
    dy = p[..., 1] - cy
    theta = np.arctan2(dy, dx)
    wrap = params.radius_mm / synthcolon._TEXTURE_SCALE_MM
    uv = np.stack(
        [wrap * np.cos(theta), wrap * np.sin(theta),
         p[..., 2] / synthcolon._TEXTURE_SCALE_MM], axis=-1,
    )
    noise = synthcolon._value_noise(params.seed, uv, params.texture_octaves)
    mod = 1.0 + params.texture_contrast * (noise - 0.5)
    base = np.array([0.80, 0.46, 0.38])
    fine = synthcolon._value_noise(params.seed + 7, uv * 3.1,
                                   max(params.texture_octaves - 1, 1))
    tint = 1.0 + 0.35 * params.texture_contrast * (fine[..., None] - 0.5) * np.array(
        [0.3, 1.0, 0.8]
    )
    return np.clip(base * mod[..., None] * tint, 0.0, 1.0)


def wall_shade(params, light, origin, dirs, t, hit):
    """:func:`scopedepth.synthcolon._shade` with the normal and the albedo
    each finding the axis centre, and the albedo's angle from arctan2."""
    pts = origin + t[:, None] * dirs
    normals = _surface_normal(params, pts)
    to_cam = -dirs  # light sits at the camera center
    cosi = np.maximum((normals * to_cam).sum(axis=-1), 0.0)
    dist2 = np.maximum(t, 1e-6) ** 2
    alb = _albedo(params, pts)
    shade = alb * (light.intensity * cosi / dist2)[:, None]
    if light.specular:
        spec = synthcolon._SPEC_STRENGTH * np.power(cosi, synthcolon._SPEC_POWER)
        shade = shade + spec[:, None]
    shade = np.where(hit[:, None], shade, 0.0)
    return np.clip(shade, 0.0, 1.0)
