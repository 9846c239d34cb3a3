"""Output checks on the files a pipeline repeat leaves behind.

The checks read the files directly, with their own PFM and CSV parsing,
rather than through the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

FUSED_MAPS = ("depth_mean.pfm", "var_aleatoric.pfm", "var_epistemic.pfm",
              "var_total.pfm")


def read_pfm(path: Path) -> np.ndarray:
    """Single-channel little-endian PFM payload as float32 (row order kept)."""
    with open(path, "rb") as f:
        raw = f.read()
    magic, dims, scale, payload = raw.split(b"\n", 3)
    if magic != b"Pf" or float(scale) >= 0:
        raise ValueError(f"{path}: not a little-endian single-channel PFM")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype="<f4", count=w * h).reshape(h, w)


def digest(paths: list[Path], root: Path) -> dict[str, str]:
    """sha256 of each file, keyed by its path relative to ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
    }


def variance_identity(fused_dir: Path) -> bool:
    """var_total == var_aleatoric + var_epistemic, exactly, in float32."""
    va = read_pfm(fused_dir / "var_aleatoric.pfm")
    ve = read_pfm(fused_dir / "var_epistemic.pfm")
    vt = read_pfm(fused_dir / "var_total.pfm")
    return bool(np.array_equal(va + ve, vt))


def csv_numbers(path: Path) -> list[float]:
    """Every value below the header row of a CSV file, as floats."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return [float(v) for row in rows[1:] for v in row]


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
