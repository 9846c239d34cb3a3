"""Raster containers, and the reader and writer of every file format.

All pixel data lives in row-major numpy arrays indexed ``data[y, x]`` (and
``data[y, x, c]`` for color).  Arrays are 32-bit floats, validated as finite
at construction and frozen afterwards, so instances can be shared freely
across threads and processes.  Numeric code works on channel-first
float64 copies (:meth:`Image.planes`, shape (c, h, w)), so the sampler's
gathers and arithmetic loop over pixels, not over three channels.

File formats:

* PFM (Portable Float Map) — single-channel ``Pf`` only (depth and
  variance maps), dimension line ``<w> <h>``, a negative scale line
  marking little-endian float32 payload, scanlines stored bottom-to-top.
  Reading back a written file reproduces every finite float bit pattern
  exactly.
* PPM (binary ``P6``, maxval 255) — 8-bit color previews, values quantized
  linearly from [0, 1].
* JSON objects (poses, intrinsics, fields, manifests), written with a
  trailing newline, and CSV rows ended by CRLF.

Every reader names the file in its errors: a PFM or PPM file that does
not parse raises :class:`PfmParseError` or :class:`PpmParseError`, and a
JSON file that does not parse, holds no object, or lacks an entry or has
one of the wrong shape or type raises ``ValueError``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np


class PfmParseError(ValueError):
    """Raised for malformed PFM headers or payloads."""

    kind = "PFM"


class PpmParseError(ValueError):
    """Raised for malformed PPM headers or payloads."""

    kind = "PPM"


_MAX_PIXELS = 1 << 26  # dimension overflow guard for file headers


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


class _Raster:
    """Height and width of a raster whose ``data`` is indexed [y, x, ...]."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class Image(_Raster):
    """Color or gray observation, values in [0, 1].

    ``data`` has shape (height, width, channels) with channels 1 or 3.
    Values are clamped into [0, 1] at construction; non-finite input is
    rejected.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError("Image data must be HxWx1 or HxWx3")
        _check_finite(arr, "Image")
        arr = np.clip(arr, 0.0, 1.0)
        object.__setattr__(self, "data", _freeze(np.ascontiguousarray(arr)))

    def planes(self) -> np.ndarray:
        """Channel-first float64 copy, shape (channels, h, w), C-contiguous."""
        return np.ascontiguousarray(np.moveaxis(self.data, 2, 0), dtype=np.float64)

    def gray(self) -> np.ndarray:
        """Channel-mean intensity, shape (h, w), float64."""
        return self.data.astype(np.float64).mean(axis=2)


@dataclass(frozen=True, eq=False)
class DepthMap(_Raster):
    """Per-pixel depth in millimetres, shape (height, width).

    Entries must be finite; positivity is required only where an
    accompanying :class:`Mask` flags a pixel valid, and is enforced by the
    operations that consume depth.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("DepthMap data must be 2-D")
        _check_finite(arr, "DepthMap")
        object.__setattr__(self, "data", _freeze(np.ascontiguousarray(arr)))


@dataclass(frozen=True, eq=False)
class UncMap(_Raster):
    """Per-pixel uncertainty, either a standard deviation or a variance;
    the ``kind`` flag makes the unit explicit."""

    data: np.ndarray
    kind: str = "std"

    def __post_init__(self):
        if self.kind not in ("std", "variance"):
            raise ValueError("UncMap kind must be 'std' or 'variance'")
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("UncMap data must be 2-D")
        _check_finite(arr, "UncMap")
        if np.any(arr < 0):
            raise ValueError("UncMap entries must be >= 0")
        object.__setattr__(self, "data", _freeze(np.ascontiguousarray(arr)))


@dataclass(frozen=True, eq=False)
class Mask(_Raster):
    """Per-pixel validity, shape (height, width), boolean."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=bool)
        if arr.ndim != 2:
            raise ValueError("Mask data must be 2-D")
        object.__setattr__(self, "data", _freeze(np.ascontiguousarray(arr)))


def same_shape(*maps) -> None:
    """Raise ValueError unless all given rasters share (height, width)."""
    shapes = {(m.height, m.width) for m in maps}
    if len(shapes) > 1:
        raise ValueError(f"raster dimensions disagree: {sorted(shapes)}")


# ---------------------------------------------------------------------------
# bilinear sampling


def bilinear_sample_planes(
    planes: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear samples of (c, h, w) float64 planes at continuous pixel
    coordinates, each corner one ``np.take`` of flat pixel indices.

    Pixel centers sit at integer coordinates; a sample is valid only when
    its 2x2 footprint stays inside [0, w-1] x [0, h-1].  Returns (values,
    d/dx, d/dy, valid): the first three have shape (c,) + xs.shape, the
    derivatives taken inside the sample's bilinear cell, and hold zeros
    where the bool array ``valid`` is false.
    """
    c, h, w = planes.shape
    flat = planes.reshape(c, h * w)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    valid = (xs >= 0.0) & (xs <= w - 1) & (ys >= 0.0) & (ys <= h - 1)
    xc = np.clip(np.where(valid, xs, 0.0), 0.0, max(w - 1, 0))
    yc = np.clip(np.where(valid, ys, 0.0), 0.0, max(h - 1, 0))
    x0 = np.minimum(np.floor(xc).astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(np.floor(yc).astype(np.int64), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    gx = 1 - fx
    gy = 1 - fy
    c00 = np.take(flat, y0 * w + x0, axis=1)
    c10 = np.take(flat, y0 * w + x1, axis=1)
    c01 = np.take(flat, y1 * w + x0, axis=1)
    c11 = np.take(flat, y1 * w + x1, axis=1)
    out = (c00 * gx + c10 * fx) * gy + (c01 * gx + c11 * fx) * fy
    ddx = (c10 - c00) * gy + (c11 - c01) * fy
    ddy = (c01 - c00) * gx + (c11 - c10) * fx
    return (np.where(valid, out, 0.0), np.where(valid, ddx, 0.0),
            np.where(valid, ddy, 0.0), valid)


# ---------------------------------------------------------------------------
# file formats: PFM and PPM rasters, JSON objects, CSV rows

_TOKEN = re.compile(rb"\s*(\S+)\s")  # a header field and the byte that ends it


def _read_raster(path, error: type[ValueError], magic: bytes, c: int,
                 number: type, dtype: str) -> tuple[np.ndarray, float]:
    """The payload of the PFM or PPM file at ``path`` as an (h, w, c) array
    of ``dtype`` in stored row order, and the header's third number.

    Both headers are four fields, each ended by one whitespace byte:
    ``magic``, width, height, and a number parsed by ``number`` (the PFM
    scale, the PPM maxval).  Every failure raises ``error`` naming the
    file.
    """
    kind = error.kind
    with open(path, "rb") as f:
        blob = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        m = _TOKEN.match(blob, pos)
        if m is None:
            raise error(f"{path}: unexpected end of data in the {kind} header")
        fields.append(m[1])
        pos = m.end()
        if fields[0] != magic:
            raise error(f"{path}: unsupported {kind} magic {fields[0]!r}, expected {magic!r}")
    try:
        w, h, third = int(fields[1]), int(fields[2]), number(fields[3])
    except ValueError as e:
        raise error(f"{path}: malformed {kind} header: {e}") from None
    if w <= 0 or h <= 0 or w * h * c > _MAX_PIXELS:
        raise error(f"{path}: bad {kind} dimensions {w}x{h}")
    need = w * h * c * np.dtype(dtype).itemsize
    if len(blob) - pos < need:
        raise error(f"{path}: unexpected end of data, {len(blob) - pos} of "
                    f"{need} payload bytes")
    return np.frombuffer(blob, dtype, w * h * c, pos).reshape(h, w, c), third


def write_pfm(m: DepthMap | UncMap, path) -> None:
    """Write a depth or uncertainty map as a single-channel "Pf" file."""
    if not isinstance(m, (DepthMap, UncMap)):
        raise TypeError("write_pfm expects a DepthMap or UncMap")
    with open(path, "wb") as f:
        f.write(f"Pf\n{m.width} {m.height}\n-1.0\n".encode("ascii"))
        f.write(np.flipud(m.data).astype("<f4").tobytes())


def read_pfm(path) -> DepthMap:
    """Read a single-channel "Pf" file into a :class:`DepthMap`.

    The map is a DepthMap whatever it holds; callers loading uncertainty
    re-wrap the payload in an :class:`UncMap` with the right kind.
    """
    arr, scale = _read_raster(path, PfmParseError, b"Pf", 1, float, "<f4")
    if scale >= 0:
        raise PfmParseError(f"{path}: big-endian PFM (positive scale) not supported")
    arr = np.flipud(arr[:, :, 0]).copy()
    if not np.all(np.isfinite(arr)):
        raise PfmParseError(f"{path}: non-finite PFM payload")
    return DepthMap(arr)


def write_ppm(img: Image, path) -> None:
    """Write an 8-bit binary P6 preview; [0,1] maps linearly to [0,255]."""
    arr = img.data
    if arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    q = np.rint(arr.astype(np.float64) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def read_ppm(path) -> Image:
    """Read a binary P6 file back into an :class:`Image` (values k/255)."""
    arr, maxval = _read_raster(path, PpmParseError, b"P6", 3, int, "u1")
    if maxval != 255:
        raise PpmParseError(f"{path}: only maxval 255 supported")
    return Image(arr.astype(np.float32) / 255.0)


def write_json(obj, path, indent: int | None = None, sort_keys: bool = False) -> None:
    """``obj`` as JSON, then a newline."""
    with open(path, "w") as f:
        f.write(json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n")


def read_json(path, build=None):
    """The JSON object in ``path``, passed through ``build`` when given.

    A file that is not JSON or holds no object is a ValueError that names
    the file, and so is a KeyError, TypeError or ValueError raised by
    ``build``: a missing entry, or one of the wrong shape or type.
    """
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    if build is None:
        return obj
    try:
        return build(obj)
    except KeyError as e:
        raise ValueError(f"{path} has no {e.args[0]!r} entry") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def write_csv(rows, path) -> None:
    """One CSV line per row, ended by CRLF; a cell is a string, written as
    is, or a number, written as its ``repr`` (exact for a float)."""
    with open(path, "w", newline="") as f:
        for row in rows:
            f.write(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\r\n")
