"""Appearance terms: SSIM, the per-pixel photometric residual, and the
edge-aware smoothness prior.

The recipe is fixed: the residual weighs SSIM against L1 by alpha = 0.85
(``_ALPHA``), and SSIM takes its statistics over 3x3 windows
(``_WINDOW``) with the stabilisers c1 = 0.01^2 and c2 = 0.03^2.

Windowed SSIM statistics use a box filter with edge replication, so every
value is checkable against a brute-force loop over clamped windows.  The
filter is two products with cached per-axis moving-mean matrices, which
are symmetric, so the filter is its own adjoint: SSIM's reverse-mode
derivative, which training needs to push photometric error back through
warped images, applies the same filter.  Each product multiplies only the
matrix's band, as cached slices of at most ``_BLOCK`` output rows (or
columns) and the input rows they read, so its cost grows with the image
and not with its side cubed, and a non-finite input value reaches only
the blocks whose slices read it, not the whole plane.  The filter acts on
the last two axes, so SSIM, its derivative and the residual work on
(c, h, w) channel stacks in one call rather than a loop over channels,
and SSIM filters its three statistics as one stack each way.

Each term has one entry point, on arrays: :func:`ssim_terms`,
:func:`photometric_residual_arrays` with its reverse-mode derivative
:func:`photometric_residual_backward`, and :func:`smoothness_and_grad`.
They take channel-first float64 planes, the layout the bilinear sampler
returns, so a training step moves no axes.  What depends on the image
alone is an argument, so training computes it once per run: the target's
SSIM terms (:func:`ssim_moments`: its windowed mean, the mean squared and
doubled, and the windowed variance) and the smoothness
:func:`edge_weights`.  Per step and per source, :func:`ssim_terms` makes
one pass over the source's statistics and hands its backward SSIM's
partials with respect to the four factors, and the residual keeps
target - source for its backward's L1 sign; each elementwise product
happens once, in place where its operand is no longer read.
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
# output rows (or columns) per banded product of the box filter
_BLOCK = 16


@functools.lru_cache(maxsize=64)
def _box_matrix(n: int) -> np.ndarray:
    """Read-only (n, n) moving mean of one axis with edge replication: row i
    averages the entries at clip(i - 1 .. i + 1, 0, n - 1).  It is exactly
    symmetric: thirds on the three central diagonals, whose clipped ends
    add to the two corner entries."""
    i = np.arange(n)[:, None]
    r = _WINDOW // 2
    m = np.zeros((n, n))
    np.add.at(m, (i, np.clip(i + np.arange(-r, r + 1), 0, n - 1)), 1.0)
    m /= _WINDOW
    m.setflags(write=False)
    return m


@functools.lru_cache(maxsize=64)
def _box_bands(n: int) -> tuple:
    """The band of :func:`_box_matrix` ``m``: per block of at most
    ``_BLOCK`` output indices o0 .. o1 - 1, the tuple (o0, o1, i0, i1,
    m[i0:i1, o0:o1]), the read-only slice of the input indices i0 .. i1 - 1
    that block reads (its own and one on either side, clamped)."""
    m = _box_matrix(n)
    bands = []
    for o0 in range(0, n, _BLOCK):
        o1 = min(o0 + _BLOCK, n)
        i0, i1 = max(o0 - 1, 0), min(o1 + 1, n)
        band = np.ascontiguousarray(m[i0:i1, o0:o1])
        band.setflags(write=False)
        bands.append((o0, o1, i0, i1, band))
    return tuple(bands)


def box_filter(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """3x3 windowed mean with edge replication over the last two axes:
    ``B_h.T @ x @ B_w``, that is ``B_h @ x @ B_w.T``, since both matrices
    are symmetric; so the filter is its own adjoint.  Each product runs
    over the band blocks of :func:`_box_bands`, one (h, w) plane at a
    time, so a plane's bytes do not depend on the stack it is in; the
    result goes into ``out`` when given, which may be ``x`` itself."""
    x = np.asarray(x, dtype=np.float64)
    h, w = x.shape[-2:]
    rows = np.empty(x.shape)
    for o0, o1, i0, i1, band in _box_bands(h):
        np.matmul(band.T, x[..., i0:i1, :], out=rows[..., o0:o1, :])
    if out is None:
        out = np.empty(x.shape)
    for o0, o1, i0, i1, band in _box_bands(w):
        np.matmul(rows[..., i0:i1], band, out=out[..., o0:o1])
    return out


def ssim_moments(x: np.ndarray) -> tuple:
    """What SSIM reads of a channel (stack) ``x`` held fixed, whatever it
    is compared with: (x, mu, mu^2, var, 2 mu), with mu the windowed mean
    and var = box(x^2) - mu^2 the windowed variance."""
    mu = box_filter(x)
    mu_sq = mu**2
    return x, mu, mu_sq, box_filter(x * x) - mu_sq, 2 * mu


def ssim_terms(a_moments: tuple, b: np.ndarray) -> tuple:
    """One pass over the windowed statistics of float64 (h, w) channels or
    (c, h, w) channel stacks ``a`` and ``b``, given the :func:`ssim_moments`
    of ``a`` (training computes them once per run): returns (S, a, b,
    2 mu_a, mu_b, dS/dA1, dS/dA2, dS/dB1, dS/dB2), the per-channel SSIM map
    S = (A1 A2) / (B1 B2) followed by what :func:`ssim_backward_channel`
    needs to differentiate it."""
    a, mu_a, mu_a_sq, var_a, two_mu_a = a_moments
    # the windowed E[b], E[b^2] and E[ab], filtered as one stack in place
    stats = np.empty((3, *b.shape))
    stats[0] = b
    np.multiply(b, b, out=stats[1])
    np.multiply(a, b, out=stats[2])
    mu_b, B2, A2 = box_filter(stats, out=stats)
    # B1 = mu_a^2 + mu_b^2 + c1 and B2 = var_a + var_b + c2
    B1 = mu_b**2
    B2 -= B1
    B2 += var_a
    B2 += _C2
    B1 += mu_a_sq
    B1 += _C1
    # A1 = 2 mu_a mu_b + c1 and A2 = 2 cov + c2
    A1 = two_mu_a * mu_b
    A1 += _C1
    A2 -= mu_a * mu_b
    A2 *= 2
    A2 += _C2
    B1B2 = B1 * B2
    S = A1 * A2
    S /= B1B2
    # the partials, in the buffers of what they replace
    dS_dA1 = np.divide(A2, B1B2, out=A2)
    dS_dA2 = np.divide(A1, B1B2, out=A1)
    neg_S = np.negative(S, out=B1B2)
    dS_dB1 = np.divide(neg_S, B1, out=B1)
    dS_dB2 = np.divide(neg_S, B2, out=B2)
    return S, a, b, two_mu_a, mu_b, dS_dA1, dS_dA2, dS_dB1, dS_dB2


def ssim_backward_channel(terms: tuple, upstream: np.ndarray) -> np.ndarray:
    """d(sum(upstream * ssim(a, b)))/db per channel, a held fixed, from the
    :func:`ssim_terms` of (a, b); an (h, w) ``upstream`` broadcasts over a
    (c, h, w) stack.  The statistics pass back through :func:`box_filter`,
    its own adjoint."""
    _, a, b, two_mu_a, mu_b, dS_dA1, dS_dA2, dS_dB1, dS_dB2 = terms
    two_mu_b = 2 * mu_b
    # what flows into the windowed E[b], E[ab] and E[b^2], filtered back
    # as one stack in place
    g = np.empty((3, *dS_dA1.shape))
    g_mu, g_eab, g_eb2 = g
    # mu_b feeds A1 directly and A2, B1, B2 through cov / mu_b^2 terms:
    # dS/dA1 2 mu_a - dS/dA2 2 mu_a + dS/dB1 2 mu_b - dS/dB2 2 mu_b, with
    # g_eb2's buffer as scratch until g_eb2 is formed
    np.multiply(dS_dA1, two_mu_a, out=g_mu)
    t = np.multiply(dS_dA2, two_mu_a, out=g_eb2)
    g_mu -= t
    np.multiply(dS_dB1, two_mu_b, out=t)
    g_mu += t
    np.multiply(dS_dB2, two_mu_b, out=t)
    g_mu -= t
    g_mu *= upstream
    # the windowed E[ab] and E[b^2] feed A2 and B2
    np.multiply(upstream, dS_dA2, out=g_eab)
    g_eab *= 2
    np.multiply(upstream, dS_dB2, out=g_eb2)
    grad, g_eab, g_eb2 = box_filter(g, out=g)
    g_eab *= a
    grad += g_eab
    g_eb2 *= 2
    g_eb2 *= b
    grad += g_eb2
    return grad


def photometric_residual_arrays(
    tgt_moments: tuple,
    warps: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Minimum-over-sources photometric error of Eq.-4 form on arrays.

    ``tgt_moments`` are the :func:`ssim_moments` of the (c, h, w) float64
    target (they do not depend on the source, so training computes them
    once per run), and each warp a pair of the (c, h, w) float64 warped
    source and its (h, w) bool validity.  Per pixel and per valid source
    the candidate is ``(1-alpha) * L1 + (alpha/2) * (1-SSIM)`` at alpha =
    ``_ALPHA``, with L1 the channel-mean absolute difference; the residual
    keeps the smallest candidate, and a pixel is valid when at least one
    source is.

    Returns (f_p, valid, argmin source index (-1 where invalid), one pair
    per source of the difference target - source and the :func:`ssim_terms`
    of (target, source), what :func:`photometric_residual_backward` reads).
    """
    if not warps:
        raise ValueError("need at least one warped source")
    tgt = tgt_moments[0]
    candidates = []
    terms = []
    for vals, valid in warps:
        diff = tgt - vals
        t = ssim_terms(tgt_moments, vals)
        cand = (1 - _ALPHA) * np.abs(diff).mean(axis=0) + 0.5 * _ALPHA * (1 - t[0].mean(axis=0))
        candidates.append(np.where(valid, cand, np.inf))
        terms.append((diff, t))
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
    fixed: ``terms`` is that source's pair from
    :func:`photometric_residual_arrays`, and ``upstream`` an (h, w) map.
    The L1 subgradient at a zero difference is zero."""
    diff, ssim = terms
    nchan = diff.shape[0]
    grad = (1 - _ALPHA) / nchan * (-np.sign(diff)) * upstream
    grad += ssim_backward_channel(ssim, -0.5 * _ALPHA / nchan * upstream)
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
    ddx, ddy = np.diff(darr, axis=1), np.diff(darr, axis=0)
    sx[:, :-1] = np.sign(ddx)
    sy[:-1, :] = np.sign(ddy)
    t_raw = (np.abs(ddx) * wx[:, :-1]).sum() + (np.abs(ddy) * wy[:-1, :]).sum()
    # dT/dd: the pixel loses its own forward differences, gains its
    # predecessors'
    gterm = -(sx * wx) - (sy * wy)
    gterm[:, 1:] += (sx * wx)[:, :-1]
    gterm[1:, :] += (sy * wy)[:-1, :]
    return gx * wx + gy * wy, gterm / (n * mu) - t_raw / (n * n * mu * mu)
