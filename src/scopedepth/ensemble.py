"""Fusion of ensemble member predictions into mean depth and decomposed
uncertainty (aleatoric / epistemic / total variance maps).

The fused depth is the member mean, aleatoric variance the mean of member
variances, epistemic variance the population variance of member depths
around the fused mean, and total = aleatoric + epistemic (computed as that
sum, so the law-of-total-variance identity holds to the last bit).
Members are reduced in ascending seed order when seeds are supplied, which
makes fusion bitwise permutation-invariant.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imagery import DepthMap, UncMap, read_json, read_pfm, same_shape, write_json, write_pfm

# file names of the fused maps, in the order of EnsembleOutput's fields
_MAPS = ("depth_mean.pfm", "var_aleatoric.pfm", "var_epistemic.pfm", "var_total.pfm")


@dataclass(frozen=True, eq=False)
class EnsembleOutput:
    d_hat: DepthMap
    var_a: UncMap
    var_e: UncMap
    var_t: UncMap
    members: int
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        same_shape(self.d_hat, self.var_a, self.var_e, self.var_t)
        for m in (self.var_a, self.var_e, self.var_t):
            if m.kind != "variance":
                raise ValueError("ensemble uncertainty maps must be variance-kind")

    def sigma_t(self) -> UncMap:
        return self.var_t.to_std()


def fuse_arrays(
    depths: list[np.ndarray], sigmas: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float64 fusion kernel; inputs are per-member depth and std maps."""
    M = len(depths)
    if M == 0:
        raise ValueError("empty member list")
    d = np.stack([np.asarray(x, dtype=np.float64) for x in depths])
    s = np.stack([np.asarray(x, dtype=np.float64) for x in sigmas])
    if d.shape != s.shape:
        raise ValueError("depth and sigma stacks disagree")
    d_hat = d.sum(axis=0) / M
    var_a = (s**2).sum(axis=0) / M
    var_e = ((d_hat[None] - d) ** 2).sum(axis=0) / M
    var_t = var_a + var_e
    return d_hat, var_a, var_e, var_t


def fuse(
    members: list[tuple[DepthMap, UncMap]], seeds: list[int] | None = None
) -> EnsembleOutput:
    """Fuse member (depth, aleatoric std) predictions.

    When ``seeds`` are given, members are sorted by seed before the
    reduction so any input ordering produces identical bits.
    """
    if not members:
        raise ValueError("empty member list")
    for d, s in members:
        same_shape(members[0][0], d, s)
        if s.kind != "std":
            raise ValueError("member sigma must be std-kind")
    order = list(range(len(members)))
    if seeds is not None:
        if len(seeds) != len(members):
            raise ValueError("seeds and members disagree in length")
        order = sorted(order, key=lambda i: seeds[i])
    depths = [members[i][0].data for i in order]
    sigmas = [members[i][1].data for i in order]
    d_hat, var_a, var_e, _ = fuse_arrays(depths, sigmas)
    # total = aleatoric + epistemic evaluated on the stored float32 values,
    # so the identity survives the storage rounding exactly
    var_a32 = var_a.astype(np.float32)
    var_e32 = var_e.astype(np.float32)
    return EnsembleOutput(
        DepthMap(d_hat),
        UncMap(var_a32, "variance"),
        UncMap(var_e32, "variance"),
        UncMap(var_a32 + var_e32, "variance"),
        len(members),
        tuple(sorted(seeds)) if seeds is not None else (),
    )


def selfsup_fuse(
    members: list[DepthMap], seeds: list[int] | None = None
) -> EnsembleOutput:
    """Depth-only fusion: aleatoric variance is identically zero and the
    total variance equals the epistemic one."""
    if not members:
        raise ValueError("empty member list")
    zero = UncMap(np.zeros((members[0].height, members[0].width)), "std")
    return fuse([(d, zero) for d in members], seeds)


def save_ensemble(out: EnsembleOutput, directory) -> None:
    """Persist as four PFM maps plus a JSON sidecar (member count, seeds)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, m in zip(_MAPS, (out.d_hat, out.var_a, out.var_e, out.var_t)):
        write_pfm(m, directory / name)
    write_json({"members": out.members, "seeds": list(out.seeds)},
               directory / "ensemble.json", indent=1)


def load_ensemble(directory) -> EnsembleOutput:
    """Read what :func:`save_ensemble` wrote; maps that disagree in size are
    a ValueError naming ``directory``."""
    directory = Path(directory)
    members, seeds = read_json(directory / "ensemble.json",
                               lambda m: (operator.index(m["members"]), tuple(m["seeds"])))
    d_hat, *variances = (read_pfm(directory / name) for name in _MAPS)
    try:
        return EnsembleOutput(d_hat, *(UncMap(v.data, "variance") for v in variances),
                              members, seeds)
    except ValueError as e:
        raise ValueError(f"{directory}: {e}") from None
