"""Procedural colon-like scenes with exact ground truth.

A scene is an implicit tube around a gently curving axis, with periodic
radial ridges (haustra-like folds), a procedural albedo texture, and a
point light travelling with the camera (inverse-square falloff plus
optional saturating specular discs).  Rays are sphere-traced against the
implicit surface with a step of f / L, where L bounds the field's gradient
norm over the lumen (:func:`_lipschitz`), so no step crosses the wall.
Straight-tube configurations have closed-form oracle intersections and
every reported hit re-substitutes into the surface equation to sub-micron
residuals.

The generator also fabricates structure-from-motion style depth labels:
globally rescaled, multiplicatively noised, with holes concentrated in
high-gradient regions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, Pose, pixel_rays, rotation_xyz
from .heap import keep_heap_mapped
from .imagery import DepthMap, Image, Mask, write_json, write_pfm, write_ppm
from .rng import Xoshiro256, hash_unit_np, normal_field_np


_MAX_LENGTH_MM = 1e6
_LENGTHS_MM = ("radius_mm", "curve_amp_mm", "ridge_amp_mm", "ridge_period_mm", "far_cap_mm")
_TEXTURE_SCALE_MM = 6.0  # base wavelength of the albedo noise
_SPEC_STRENGTH = 1.5  # > 1 so specular disc cores saturate after clamping
_SPEC_POWER = 16.0


@dataclass(frozen=True)
class SceneParams:
    radius_mm: float = 12.0
    curve_amp_mm: float = 10.0
    curve_freq: float = 0.05  # rad/mm along the axis
    ridge_amp_mm: float = 2.0
    ridge_period_mm: float = 14.0
    texture_octaves: int = 3
    texture_contrast: float = 0.55
    far_cap_mm: float = 80.0
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if name != "seed" and not np.isfinite(value):
                raise ValueError(f"scene {name} must be finite, got {value}")
        # the field squares lengths, which overflows float64 near 1e154 mm
        for name in _LENGTHS_MM:
            if abs(getattr(self, name)) > _MAX_LENGTH_MM:
                raise ValueError(f"scene {name} must be at most {_MAX_LENGTH_MM:g} mm "
                                 f"in magnitude, got {getattr(self, name)}")
        if not self.radius_mm > self.ridge_amp_mm >= 0:
            raise ValueError("need radius > ridge amplitude >= 0")
        for name in ("ridge_period_mm", "far_cap_mm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"scene {name} must be positive, got {getattr(self, name)}")
        if self.texture_octaves < 1:
            raise ValueError(f"scene texture_octaves must be >= 1, got {self.texture_octaves}")


@dataclass(frozen=True)
class LightModel:
    """Head-mounted point light: intensity * cos / distance^2 Lambertian
    shading, optionally topped by view-aligned specular saturation discs of
    ``_SPEC_STRENGTH`` * cos^``_SPEC_POWER``."""

    intensity: float = 1000.0
    specular: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(
                f"light intensity must be positive and finite, got {self.intensity}")


def _axis_center(params: SceneParams, z):
    z = np.asarray(z, dtype=np.float64)
    cx = params.curve_amp_mm * np.sin(params.curve_freq * z)
    cy = params.curve_amp_mm * np.sin(0.73 * params.curve_freq * z + 1.1)
    return cx, cy


def _axis_tangent(params: SceneParams, z):
    z = np.asarray(z, dtype=np.float64)
    dcx = params.curve_amp_mm * params.curve_freq * np.cos(params.curve_freq * z)
    dcy = (
        params.curve_amp_mm
        * 0.73
        * params.curve_freq
        * np.cos(0.73 * params.curve_freq * z + 1.1)
    )
    return dcx, dcy


def _ridge_radius(params: SceneParams, z):
    """r(z) = R - A (1 + cos(k z)) / 2 with k = 2 pi / P, evaluated as
    (R - A/2) - (A/2) cos(k z)."""
    half = 0.5 * params.ridge_amp_mm
    k = 2.0 * np.pi / params.ridge_period_mm
    return (params.radius_mm - half) - half * np.cos(k * np.asarray(z, np.float64))


def _ridge_radius_dz(params: SceneParams, z):
    k = 2.0 * np.pi / params.ridge_period_mm
    return params.ridge_amp_mm * 0.5 * k * np.sin(k * np.asarray(z, np.float64))


def surface_field(params: SceneParams, points: np.ndarray) -> np.ndarray:
    """Implicit wall function: positive inside the lumen, zero on the wall.

    f(p) = r(z) - rho, with r the ridged radius of :func:`_ridge_radius`
    and rho = sqrt(dx*dx + dy*dy) the distance of p.xy from axis(z),
    accumulated in place.  f differs by about an ulp from the plain form
    with np.hypot and r = R - A (0.5 + 0.5 cos(2 pi z / P)); against it,
    the tested scenes' rays take the same steps and hit the same wall,
    and their rendered files are byte-identical.
    """
    p = np.asarray(points, dtype=np.float64)
    cx, cy = _axis_center(params, p[..., 2])
    dx = p[..., 0] - cx
    dx *= dx
    dy = p[..., 1] - cy
    dy *= dy
    dx += dy
    f = _ridge_radius(params, p[..., 2])
    f -= np.sqrt(dx)
    return f


def _lipschitz(params: SceneParams) -> float:
    """hypot(1, max|r'| + max|c'|), a bound on |grad f| over the lumen and
    the sphere trace's step divisor (derived in :func:`_trace`).  A
    straight tube gives exactly 1."""
    axis_slope = abs(params.curve_amp_mm * params.curve_freq) * np.hypot(1.0, 0.73)
    ridge_slope = params.ridge_amp_mm * np.pi / params.ridge_period_mm
    return np.hypot(1.0, axis_slope + ridge_slope)


def _wall_frame(params: SceneParams, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit radial direction (dx / rho, dy / rho) of points p, where
    (dx, dy) = p.xy - axis(p.z) and rho = sqrt(dx*dx + dy*dy), clamped
    away from zero on the axis."""
    cx, cy = _axis_center(params, p[..., 2])
    dx = p[..., 0] - cx
    dy = p[..., 1] - cy
    rho = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-12)
    return dx / rho, dy / rho


def surface_normal(params: SceneParams, points: np.ndarray,
                   frame: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Inward unit normal (gradient of :func:`surface_field`): with u the
    points' unit radial direction ``frame`` (:func:`_wall_frame`), the
    normalised (-u, r'(z) + u . c'(z)).  Its rho = sqrt(dx*dx + dy*dy)
    differs by about an ulp from np.hypot, which changes no rendered byte
    of the tested scenes."""
    p = np.asarray(points, dtype=np.float64)
    ux, uy = frame
    dcx, dcy = _axis_tangent(params, p[..., 2])
    gz = _ridge_radius_dz(params, p[..., 2]) + ux * dcx + uy * dcy
    g = np.stack([-ux, -uy, gz], axis=-1)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


_TRACE_TOL = 1e-4  # mm
_TRACE_MAX_ITERS = 2048
# the live ray set is re-compacted once this share of it has finished
_TRACE_COMPACT_SHARE = 0.125
# most rays marched or shaded at once; smaller blocks run more iterations
# of fixed per-call cost (about 35 us each), so the time per ray rises
# below about 8k rays
_RAY_BLOCK = 16384


def _trace(params: SceneParams, z_cam: np.ndarray, n_views: int,
           view_rays) -> tuple[np.ndarray, np.ndarray]:
    """Sphere-trace the rays of ``n_views`` views in one march.  Every view
    has the same n rays in camera coordinates; ``z_cam`` holds their
    camera-frame z rates, so ``t * z_cam`` is a ray's current z-depth.
    ``view_rays(i)`` returns view i's world origin (3,) and its (n, 3)
    world ray directions.  Returns the (n_views, n) ray parameters t and
    hit flags; misses stop at the far-cap depth.

    Each ray steps ``t += surface_field(o + t d) / L`` until it hits,
    passes its cap or has taken ``_TRACE_MAX_ITERS`` steps of its own.
    With u the unit radial direction of p.xy - c(z), the field's gradient
    is (-u, r'(z) + u . c'(z)) and |u| = 1, so L = :func:`_lipschitz` =
    hypot(1, max|r'| + max|c'|) bounds it, and a step of f / L stops short
    of the wall (Hart 1996, "Sphere tracing").  At
    most min(n, ``_RAY_BLOCK``) rays are live: rays that finish are frozen
    in place and dropped once ``_TRACE_COMPACT_SHARE`` of the live set has
    finished, and the freed slots take the next rays in view order.  A
    view's rays are built when its first ray enters, so the grazing rays of
    one view march alongside the bulk of the next ones.

    The live state is component-major: origins and directions are (3, m)
    arrays, so ``o + t d`` is three contiguous row operations, and a
    compaction gathers every state array with one index list of the rays
    still marching.  Each ray evaluates the field at the same points, with
    the same operations, as a plain per-ray march, so no byte depends on
    the layout."""
    n = z_cam.size
    slots = min(n, _RAY_BLOCK)
    t = np.zeros((n_views, n))
    hit = np.zeros((n_views, n), dtype=bool)
    t_flat, hit_flat = t.reshape(-1), hit.reshape(-1)
    L = _lipschitz(params)
    cap_px = params.far_cap_mm / np.maximum(z_cam, 1e-9)
    # compacted state of the rays not yet dropped, in the order they
    # entered: their flat (view, pixel) indices, (3, m) origins and
    # directions, ray parameters, caps, the step before which they must
    # stop, and whether they still march
    idx = np.zeros(0, dtype=np.int64)
    o, d = np.zeros((3, 0)), np.zeros((3, 0))
    tl, cap = np.zeros(0), np.zeros(0)
    stop = np.zeros(0, dtype=np.int64)
    running = np.zeros(0, dtype=bool)
    n_running = 0
    entered = 0  # flat index of the next ray to enter
    step = 0
    while True:
        if n_running <= (1.0 - _TRACE_COMPACT_SHARE) * idx.size:
            t_flat[idx] = tl
            keep = np.flatnonzero(running)
            parts = [[a.take(keep, axis=-1)] for a in (idx, o, d, tl, cap, stop)]
            # refill the freed slots with the next rays, in view order
            free = slots - n_running
            while free and entered < t_flat.size:
                pixel = entered % n
                if pixel == 0:
                    origin, dirs = view_rays(entered // n)
                k = min(free, n - pixel)
                rows = slice(pixel, pixel + k)
                for part, new in zip(parts, (
                    np.arange(entered, entered + k), np.broadcast_to(origin[:, None], (3, k)),
                    dirs[rows].T, np.zeros(k), cap_px[rows],
                    np.full(k, step + _TRACE_MAX_ITERS),
                )):
                    part.append(new)
                entered += k
                free -= k
            idx, o, d, tl, cap, stop = (np.concatenate(part, axis=-1) for part in parts)
            running = np.ones(idx.size, dtype=bool)
            n_running = idx.size
            if n_running == 0:
                break
        # the field reads each coordinate of this (m, 3) view as a
        # contiguous row
        f = surface_field(params, (o + tl * d).T)
        newly_hit = running & (f < _TRACE_TOL)
        hit_flat[idx[newly_hit]] = True
        running &= ~newly_hit
        np.add(tl, f / L, out=tl, where=running)
        running &= tl < cap
        step += 1
        if step >= stop[0]:  # the earliest entrants have run out of steps
            running &= step < stop
        n_running = np.count_nonzero(running)
    return t, hit


# lattice corner offsets of a unit cell, in the order the noise sums them
_CELL_CORNERS = np.array(
    [[(corner >> 2) & 1, (corner >> 1) & 1, corner & 1] for corner in range(8)]
)


# a bounding box of lattice cells is numbered by an occupancy count when
# it holds at most this many cells per point, and by a sort otherwise
_DENSE_CELLS = 8


def _number_cells(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` (indices into a box of ``size``
    cells) in ascending order, and each key's position among them, as
    ``np.unique(keys, return_inverse=True)`` gives them."""
    if size > _DENSE_CELLS * keys.size:
        return np.unique(keys, return_inverse=True)
    occupied = np.bincount(keys, minlength=size) > 0
    rank = np.cumsum(occupied) - 1
    return np.flatnonzero(occupied), rank[keys]


def _value_noise(seed: int, pts: np.ndarray, octaves: int) -> np.ndarray:
    """Seamless 3-D value noise in [0, 1]; trilinear lattice interpolation
    of hashed corners, octave amplitudes halving.  The corners of each
    distinct lattice cell are hashed once and gathered per point; the
    cells are numbered in ascending order of their index in the points'
    bounding box, by an occupancy count over the box when it holds at
    most ``_DENSE_CELLS`` cells per point and by ``np.unique`` otherwise,
    so the numbering, and every value, is the same either way.  Tests hold
    both paths bit for bit against hashing all eight corners per point."""
    coords = np.ascontiguousarray(np.moveaxis(pts, -1, 0)).reshape(3, -1)
    total = np.zeros(coords.shape[1])
    if total.size == 0:  # an empty view: there is no bounding box
        return total.reshape(pts.shape[:-1])
    amp_sum = 0.0
    amp = 1.0
    for octave in range(octaves):
        frac = coords * (2.0**octave)
        base = np.floor(frac).astype(np.int64)
        frac -= base
        # number the distinct cells by their index in the bounding box
        lo = base.min(axis=1, keepdims=True)
        base -= lo
        span = base.max(axis=1) + 1
        keys, cell_of = _number_cells(np.ravel_multi_index(tuple(base), span),
                                      int(np.prod(span)))
        cells = np.unravel_index(keys, span)
        corner_values = hash_unit_np(
            seed + 101 * octave,
            *(cells[axis] + lo[axis] + _CELL_CORNERS[:, axis, None] for axis in range(3)),
        )
        # per axis, the weights of the cell's low and high corner
        weights = [(1.0 - f, f) for f in frac]
        acc = np.zeros(coords.shape[1])
        for off, values in zip(_CELL_CORNERS, corner_values):
            acc += (weights[0][off[0]] * weights[1][off[1]] * weights[2][off[2]]
                    * values[cell_of])
        total += amp * acc
        amp_sum += amp
        amp *= 0.5
    return (total / amp_sum).reshape(pts.shape[:-1])


def _albedo(params: SceneParams, points: np.ndarray,
            frame: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Procedural mucosa-like color at surface points: value noise over
    texture coordinates (wrap cos(theta), wrap sin(theta), z / scale),
    with scale ``_TEXTURE_SCALE_MM``, wrap = radius / scale and
    (cos(theta), sin(theta)) = (dx / rho, dy / rho), the points'
    :func:`_wall_frame` ``frame``.  That is about an ulp from cos and sin
    of arctan2(dy, dx), and gives the tested scenes the same bytes."""
    p = np.asarray(points, dtype=np.float64)
    ux, uy = frame
    wrap = params.radius_mm / _TEXTURE_SCALE_MM
    # component-major, so the noise reads each coordinate as a contiguous row
    uv = np.stack([wrap * ux, wrap * uy, p[..., 2] / _TEXTURE_SCALE_MM]).T
    noise = _value_noise(params.seed, uv, params.texture_octaves)
    mod = 1.0 + params.texture_contrast * (noise - 0.5)
    base = np.array([0.80, 0.46, 0.38])
    fine = _value_noise(params.seed + 7, uv * 3.1, max(params.texture_octaves - 1, 1))
    tint = 1.0 + 0.35 * params.texture_contrast * (fine[..., None] - 0.5) * np.array(
        [0.3, 1.0, 0.8]
    )
    return np.clip(base * mod[..., None] * tint, 0.0, 1.0)


def _unit_rays(K: CameraIntrinsics, w: int, h: int) -> np.ndarray:
    """(h, w, 3) unit ray directions of a view's pixels, camera frame."""
    rays_cam = pixel_rays(K, w, h)
    return rays_cam / np.linalg.norm(rays_cam, axis=-1, keepdims=True)


def _world_rays(params: SceneParams, pose: Pose,
                dirs_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The world origin (3,) and (n, 3) world directions of one view's
    rays; rejects a camera outside the tube."""
    origin = pose.translation
    if surface_field(params, origin[None, :])[0] <= 0:
        raise ValueError("camera is outside the tube")
    return origin, (dirs_cam @ pose.rotation.T).reshape(-1, 3)


def _shade(params: SceneParams, light: LightModel, origin: np.ndarray,
           dirs: np.ndarray, t: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The (m, 3) clipped colors of the rays ``origin + t dirs``; rays
    that missed are black."""
    pts = origin + t[:, None] * dirs
    # the normal and the albedo read one wall frame
    frame = _wall_frame(params, pts)
    normals = surface_normal(params, pts, frame)
    to_cam = -dirs  # light sits at the camera center
    cosi = np.maximum((normals * to_cam).sum(axis=-1), 0.0)
    dist2 = np.maximum(t, 1e-6) ** 2
    alb = _albedo(params, pts, frame)
    shade = alb * (light.intensity * cosi / dist2)[:, None]
    if light.specular:
        spec = _SPEC_STRENGTH * np.power(cosi, _SPEC_POWER)
        shade = shade + spec[:, None]
    shade = np.where(hit[:, None], shade, 0.0)
    return np.clip(shade, 0.0, 1.0)


def render_view(
    params: SceneParams,
    pose: Pose,
    K: CameraIntrinsics,
    w: int,
    h: int,
    light: LightModel | None = None,
    *,
    traced: tuple[np.ndarray, np.ndarray] | None = None,
    rays: np.ndarray | None = None,
) -> tuple[Image, DepthMap, Mask]:
    """Ray-cast one view.  ``pose`` is the camera-to-world transform.

    Returns the shaded image, the camera-frame z-depth map (far-cap depth
    where the ray leaves the tube unhit), and the hit-validity mask.
    ``traced`` is the view's (t, hit) from a march that already ran, and
    ``rays`` its camera-frame unit rays ``_unit_rays(K, w, h)``, as
    :func:`render_views` passes them; without them both are made here.
    Rays are shaded ``_RAY_BLOCK`` at a time, each with the same
    operations, so no byte depends on the block.
    """
    light = light or LightModel()
    dirs_cam = _unit_rays(K, w, h) if rays is None else rays
    z_rate = dirs_cam[..., 2].reshape(-1)
    origin, dirs_flat = _world_rays(params, pose, dirs_cam)
    if traced is None:
        t, hit = _trace(params, z_rate, 1, lambda _: (origin, dirs_flat))
        traced = t[0], hit[0]
    t, hit = traced
    depth = np.where(hit, t * z_rate, params.far_cap_mm)
    # an empty view shades one empty block
    blocks = [slice(start, start + _RAY_BLOCK)
              for start in range(0, max(t.size, 1), _RAY_BLOCK)]
    img = np.concatenate([_shade(params, light, origin, dirs_flat[rows], t[rows], hit[rows])
                          for rows in blocks])
    return (
        Image(img.reshape(h, w, 3)),
        DepthMap(depth.reshape(h, w)),
        Mask(hit.reshape(h, w)),
    )


def render_views(
    params: SceneParams,
    poses: list[Pose],
    K: CameraIntrinsics,
    w: int,
    h: int,
    light: LightModel | None = None,
) -> list[tuple[Image, DepthMap, Mask]]:
    """:func:`render_view` of every pose, with one sphere trace for all
    of them: at most min(w * h, ``_RAY_BLOCK``) rays march at once, and
    each view's rays enter as earlier ones finish.  Every ray takes the
    same steps as in a single-view trace, so each view's bytes equal its
    own render's."""
    return list(_iter_views(params, poses, K, w, h, light))


def _iter_views(params, poses, K, w, h, light):
    """:func:`render_views` as an iterator: the march runs at the first
    ``next``, and each view is shaded only when it is asked for."""
    dirs_cam = _unit_rays(K, w, h)
    t, hit = _trace(params, dirs_cam[..., 2].reshape(-1), len(poses),
                    lambda i: _world_rays(params, poses[i], dirs_cam))
    for i, pose in enumerate(poses):
        yield render_view(params, pose, K, w, h, light, traced=(t[i], hit[i]), rays=dirs_cam)


_SWAY_PERIOD = 8.0  # frames


def generate_trajectory(
    params: SceneParams,
    n_frames: int,
    step_mm: float,
    heading_noise_rad: float = 0.008,
    sway_mm: float = 0.0,
) -> list[Pose]:
    """Camera-to-world poses advancing along the tube axis from z = 0.

    The camera rides the axis looking along its tangent, with small
    deterministic per-frame heading perturbations drawn from the scene
    seed's "trajectory" substream.  ``sway_mm`` adds a slow sinusoidal
    lateral offset (random phase, period ``_SWAY_PERIOD`` frames) that gives
    consecutive frames a sideways baseline component; pure forward motion
    has no parallax at the focus of expansion, so photometric supervision
    benefits from a little sway, like a real scope tip.
    """
    if n_frames < 3:
        raise ValueError("need at least 3 frames for source/target triplets")
    if not (np.isfinite(step_mm) and step_mm > 0):
        raise ValueError(f"step_mm must be positive and finite, got {step_mm}")
    if step_mm > params.radius_mm:
        raise ValueError("step too large: camera would leave the tube between frames")
    if not np.isfinite(heading_noise_rad):
        raise ValueError(f"heading_noise_rad must be finite, got {heading_noise_rad}")
    if not 0 <= sway_mm < params.radius_mm - params.ridge_amp_mm:
        raise ValueError(f"sway_mm must keep the camera inside the tube, got {sway_mm}")
    gen = Xoshiro256(params.seed).substream("trajectory")
    phase_x = gen.uniform(0, 2 * np.pi)
    phase_y = gen.uniform(0, 2 * np.pi)
    poses = []
    for i in range(n_frames):
        z = i * step_mm
        cx, cy = _axis_center(params, z)
        off_x = sway_mm * np.sin(2 * np.pi * i / _SWAY_PERIOD + phase_x)
        off_y = sway_mm * np.sin(2 * np.pi * i / _SWAY_PERIOD * 0.73 + phase_y)
        dcx, dcy = _axis_tangent(params, z)
        forward = np.array([float(dcx), float(dcy), 1.0])
        forward /= np.linalg.norm(forward)
        right = np.cross(np.array([0.0, 1.0, 0.0]), forward)
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        R = np.stack([right, down, forward], axis=1)
        noise = rotation_xyz(
            gen.uniform(-heading_noise_rad, heading_noise_rad),
            gen.uniform(-heading_noise_rad, heading_noise_rad),
            gen.uniform(-heading_noise_rad, heading_noise_rad),
        )
        center = np.array([float(cx) + off_x, float(cy) + off_y, z])
        poses.append(Pose(R @ noise, center))
    return poses


def simulate_sfm_labels(
    d_gt: DepthMap,
    seed: int,
    hole_fraction: float = 0.3,
    noise_rel: float = 0.05,
    global_scale: float = 1.0,
) -> tuple[DepthMap, Mask]:
    """Fake SfM reconstruction: scaled, relatively noised, hole-ridden.

    Holes are Bernoulli-drawn with probability proportional to the rank of
    the local depth-gradient magnitude, mimicking dropouts around depth
    discontinuities; the expected hole budget equals ``hole_fraction``.
    Pixels whose noised depth stays non-positive after a few redraws are
    masked out instead.
    """
    if not 0.0 <= hole_fraction < 1.0:
        raise ValueError("hole_fraction must be in [0, 1)")
    if noise_rel < 0 or global_scale <= 0:
        raise ValueError("noise_rel must be >= 0 and global_scale > 0")
    d = d_gt.data.astype(np.float64)
    h, w = d.shape
    n = d.size
    eps = noise_rel * normal_field_np(seed, (h, w), salt=0)
    for retry in range(1, 8):
        bad = 1.0 + eps <= 0
        if not bad.any():
            break
        redraw = noise_rel * normal_field_np(seed, (h, w), salt=retry)
        eps = np.where(bad, redraw, eps)
    usable = 1.0 + eps > 0
    d_sfm = np.where(usable, global_scale * d * (1.0 + eps), d.mean())
    gmag = np.hypot(*np.gradient(d))
    ranks = np.empty(n)
    ranks[np.argsort(gmag.ravel(), kind="stable")] = np.arange(1, n + 1)
    p_hole = np.minimum(hole_fraction * ranks / ((n + 1) / 2.0), 0.98).reshape(h, w)
    u = hash_unit_np(seed ^ 0xD1CE, np.arange(n).reshape(h, w))
    mask = (u >= p_hole) & usable
    return DepthMap(d_sfm), Mask(mask)


# ---------------------------------------------------------------------------
# dataset directory layout


def write_dataset(
    directory,
    params: SceneParams,
    K: CameraIntrinsics,
    n_frames: int,
    step_mm: float,
    w: int,
    h: int,
    light: LightModel | None = None,
    heading_noise_rad: float = 0.008,
    sway_mm: float = 0.0,
) -> None:
    """Render a trajectory into the on-disk layout:

    frame_%04d.ppm, depth_%04d.pfm, pose_%04d.json, intrinsics.json.
    Poses are camera-to-world.  The ``synth`` command writes the
    settings, as its resolved configuration, into ``manifest.json``.
    """
    light = light or LightModel()
    poses = generate_trajectory(params, n_frames, step_mm, heading_noise_rad,
                                sway_mm=sway_mm)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # without this, each march iteration faults its freed temporaries back in
    keep_heap_mapped()
    views = _iter_views(params, poses, K, w, h, light)
    for i, pose in enumerate(poses):
        img, depth, _hit = next(views)
        write_ppm(img, directory / f"frame_{i:04d}.ppm")
        write_pfm(depth, directory / f"depth_{i:04d}.pfm")
        # dropped here, not when the next view is bound after its shading
        del img, depth, _hit
        pose.save(directory / f"pose_{i:04d}.json")
    write_json(K.to_json(), directory / "intrinsics.json", indent=1)
