"""Appearance terms: SSIM, the per-pixel photometric residual, and the
edge-aware smoothness prior.

The recipe is fixed: the residual weighs SSIM against L1 by alpha = 0.85
(``_ALPHA``), and SSIM takes its statistics over 3x3 windows
(``_WINDOW``) with the stabilisers c1 = 0.01^2 and c2 = 0.03^2.

Windowed SSIM statistics use a box filter with edge replication, so every
value is checkable against a brute-force loop over clamped windows.  The
filter is two matrix products with cached per-axis moving-mean matrices,
``B_h @ x @ B_w.T``, so its adjoint ``B_h.T @ g @ B_w`` is exact by
construction, for any image size.  Both act on the last two axes, so SSIM,
its reverse-mode derivative and the residual work on (c, h, w) channel
stacks in one call rather than a loop over channels.  Training needs that
derivative to push photometric error back through warped images.

Each term has one entry point, on arrays: :func:`ssim_terms`,
:func:`photometric_residual_arrays` with its reverse-mode derivative
:func:`photometric_residual_backward`, and :func:`smoothness_and_grad`.
They take channel-first float64 planes, the layout the bilinear sampler
returns, so a training step moves no axes.  What depends on the image
alone (the target's :func:`ssim_moments`, the smoothness
:func:`edge_weights`) is an argument, so training computes it once per run.
"""

from __future__ import annotations

import functools

import numpy as np

from .imagery import Image


# the SSIM stabilisers for [0, 1] intensities (Wang et al. 2004, "Image
# quality assessment: from error visibility to structural similarity")
_C1 = 0.01**2
_C2 = 0.03**2
# the Eq.-4 weight of SSIM against L1 and the SSIM window's side, the
# standard view-synthesis recipe (Godard et al. 2019, "Digging into
# self-supervised monocular depth estimation")
_ALPHA = 0.85
_WINDOW = 3


@functools.lru_cache(maxsize=64)
def _box_matrix(n: int) -> np.ndarray:
    """Read-only (n, n) moving mean of one axis with edge replication: row i
    averages the entries at clip(i - 1 .. i + 1, 0, n - 1)."""
    i = np.arange(n)[:, None]
    r = _WINDOW // 2
    m = np.zeros((n, n))
    np.add.at(m, (i, np.clip(i + np.arange(-r, r + 1), 0, n - 1)), 1.0)
    m /= _WINDOW
    m.setflags(write=False)
    return m


def box_filter(x: np.ndarray) -> np.ndarray:
    """3x3 windowed mean with edge replication over the last two axes:
    ``B_h @ x @ B_w.T``."""
    x = np.asarray(x, dtype=np.float64)
    h, w = x.shape[-2:]
    return _box_matrix(h) @ x @ _box_matrix(w).T


def box_filter_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`box_filter`: <box(x), g> == <x, adjoint(g)>."""
    g = np.asarray(g, dtype=np.float64)
    h, w = g.shape[-2:]
    return _box_matrix(h).T @ g @ _box_matrix(w)


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
    (c, h, w) stack."""
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
        box_filter_adjoint(g_mu)
        + box_filter_adjoint(g_eab) * a
        + box_filter_adjoint(g_eb2) * 2 * b
    )


def photometric_residual_arrays(
    tgt: np.ndarray,
    tgt_moments: tuple[np.ndarray, np.ndarray],
    warps: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Minimum-over-sources photometric error of Eq.-4 form on arrays.

    ``tgt`` is the (c, h, w) float64 target, ``tgt_moments`` its
    :func:`ssim_moments` (they do not depend on the source, so training
    computes them once per run), and each warp a pair of the (c, h, w)
    float64 warped source and its (h, w) bool validity.  Per pixel and per
    valid source the candidate is ``(1-alpha) * L1 + (alpha/2) * (1-SSIM)``
    at alpha = ``_ALPHA``, with L1 the channel-mean absolute difference;
    the residual keeps the smallest candidate, and a pixel is valid when
    at least one source is.

    Returns (f_p, valid, argmin source index (-1 where invalid), one
    :func:`ssim_terms` tuple of (c, h, w) stacks per source).
    """
    if not warps:
        raise ValueError("need at least one warped source")
    candidates = []
    terms = []
    for vals, valid in warps:
        l1 = np.abs(tgt - vals).mean(axis=0)
        t = ssim_terms(tgt, vals, tgt_moments)
        cand = (1 - _ALPHA) * l1 + 0.5 * _ALPHA * (1 - t[0].mean(axis=0))
        candidates.append(np.where(valid, cand, np.inf))
        terms.append(t)
    stack = np.stack(candidates, axis=0)
    arg = np.argmin(stack, axis=0)
    f_p = np.min(stack, axis=0)
    valid = np.isfinite(f_p)
    f_p = np.where(valid, f_p, 0.0)
    arg = np.where(valid, arg, -1)
    return f_p, valid, arg, terms


def photometric_residual_backward(terms: tuple, upstream: np.ndarray) -> np.ndarray:
    """d(sum(upstream * candidate))/d(source) for one source's Eq.-4
    candidate ``(1-alpha) * L1 + (alpha/2) * (1-SSIM)``, the target held
    fixed: ``terms`` is that source's :func:`ssim_terms` tuple from
    :func:`photometric_residual_arrays`, which carries the (c, h, w) target
    and warped source, and ``upstream`` an (h, w) map.  The L1 subgradient
    at a zero difference is zero."""
    tgt, vals = terms[1], terms[2]
    nchan = tgt.shape[0]
    grad = (1 - _ALPHA) / nchan * (-np.sign(tgt - vals)) * upstream
    grad += ssim_backward_channel(terms, -0.5 * _ALPHA / nchan * upstream)
    return grad


def edge_weights(I: Image) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|dx gray|) and exp(-|dy gray|) of an image, one in the last
    column/row: the weights of :func:`smoothness_and_grad`."""
    gray = I.gray()
    wx = np.ones_like(gray)
    wy = np.ones_like(gray)
    wx[:, :-1] = np.exp(-np.abs(np.diff(gray, axis=1)))
    wy[:-1, :] = np.exp(-np.abs(np.diff(gray, axis=0)))
    return wx, wy


def smoothness_and_grad(
    d: np.ndarray, weights: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Edge-weighted first-order smoothness of mean-normalized depth ``d``
    given the image's :func:`edge_weights`, and d(mean(smoothness))/d(d[j]),
    including the coupling through the mean normalization.

    With d* = d / mean(d) and forward differences (zero in the last
    row/column) the map is |dx d*| exp(-|dx gray|) + |dy d*| exp(-|dy gray|).
    Sign of a zero difference is taken as zero.  Raises when mean depth is
    not positive or the shapes disagree."""
    darr = np.asarray(d, dtype=np.float64)
    mu = darr.mean()
    if mu <= 0:
        raise ValueError("mean depth must be positive")
    wx, wy = weights
    if wx.shape != darr.shape:
        raise ValueError("depth and image dimensions disagree")
    dn = darr / mu
    gx = np.zeros_like(dn)
    gy = np.zeros_like(dn)
    gx[:, :-1] = np.abs(np.diff(dn, axis=1))
    gy[:-1, :] = np.abs(np.diff(dn, axis=0))
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
    return gx * wx + gy * wy, gterm / (n * mu) - t_raw / (n * n * mu * mu)
