"""Command-line front end: synth / train / fuse / eval / calib.

Every command resolves its configuration from an optional JSON config file
plus flag overrides (flags win), then writes a ``manifest.json`` holding the
fully resolved configuration next to its outputs.  Re-running a command
with ``--config <manifest>`` reproduces the artifacts bit for bit on the
same machine, numpy and BLAS build.  All randomness descends from the
single ``seed`` entry through named substreams.

A command's flags are the config keys in its ``*_FLAGS`` tuple, spelled
``--key-with-dashes`` and typed like the key's entry in ``*_DEFAULTS``;
boolean keys take ``--key``/``--no-key``.  Other keys are set via --config,
whose values must have the same types (an int may stand for a float).

Train keys of earlier releases whose values are now fixed are listed in
``RETIRED_KEYS`` with their values: self-supervision always weighs SSIM
by alpha 0.85 over 3x3 windows and takes the target's two neighbours as
sources.  A --config (an old train manifest, say) may hold such a key at
its fixed value, and the key is dropped from the new manifest; any other
value is a usage error.

Every dataset is read through its synth manifest, whose ``config`` holds
the frame count.  A fused directory is its four maps, and its fuse
manifest records the members' seeds.  A command writes its manifest into
``--out`` (eval and calib beside it), and before writing anything refuses
an ``--out`` whose manifest another command (eval and calib are one) wrote.

``train``'s ``regime`` key, one of the paper's five supervision regimes
(:class:`Regime`), picks the training bundle it builds from the dataset.
It trains the ensemble members one after another in the calling
process, for any value of its ``jobs`` key (``--jobs``), which must be
>= 1 and is recorded in the manifest.

Every input file is read through :mod:`scopedepth.imagery`: a PFM, PPM
or JSON file that does not parse, or whose entries have the wrong shape
or type, is a usage error that names the file; so is a ``member_*.json``
whose seed is not the one in its name.

Exit codes: 0 success, 2 usage or validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import enum
import sys
from pathlib import Path

import numpy as np

from .ensemble import fuse, load_ensemble, save_ensemble, selfsup_fuse
from .geometry import CameraIntrinsics, Pose, relative_pose
from .imagery import (DepthMap, UncMap, json_entry, json_type_ok, read_json, read_pfm,
                      read_ppm, write_csv, write_json)
from .losses import LossConfig
from .metrics import (auce, calibration_curve, default_p_grid, depth_metrics,
                      scale_correction)
from .predictor import DepthField, forward
from .rng import Xoshiro256
from .synthcolon import LightModel, SceneParams, simulate_sfm_labels, write_dataset
from .trainer import LabeledFrame, NumericFailure, TrainConfig, TrainData, Triplet, train_ensemble


class UsageError(ValueError):
    pass


class Regime(enum.Enum):
    """The paper's five supervision regimes, the values of the ``regime``
    key; :func:`_build_train_data` builds each one's training bundle."""

    SUPERVISED_GT = "supervised-gt"
    SUPERVISED_SFM = "supervised-sfm"
    SELF_SUPERVISED = "self-supervised"
    PLAIN_STUDENT = "plain-student"
    UNCERTAIN_STUDENT = "uncertain-student"


# SceneParams fields that are config keys of the same name (``seed`` is
# the run's seed, so it is listed in SYNTH_DEFAULTS on its own)
SCENE_KEYS = ("radius_mm", "curve_amp_mm", "curve_freq", "ridge_amp_mm",
              "ridge_period_mm", "texture_octaves", "texture_contrast", "far_cap_mm")

SYNTH_DEFAULTS = {
    "seed": 0,
    "frames": 12,
    "width": 64,
    "height": 64,
    "step_mm": 1.0,
    "fx": 48.0,
    "fy": 48.0,
    "cx": 31.5,
    "cy": 31.5,
    # a dataclass's class attributes are its fields' defaults
    **{k: getattr(SceneParams, k) for k in SCENE_KEYS},
    "light_intensity": LightModel.intensity,
    "specular": LightModel.specular,
    "heading_noise_rad": 0.008,
    "sway_mm": 0.0,
}

# TrainConfig and LossConfig fields that are config keys of the same name
TRAIN_KEYS = ("steps", "learning_rate", "grid", "depth_init_mm", "jitter")
LOSS_KEYS = ("sigma_min", "lambda_u", "weight_decay")

TRAIN_DEFAULTS = {
    "seed": 0,
    "regime": Regime.SUPERVISED_GT.value,
    "members": 5,
    **{k: getattr(TrainConfig, k) for k in TRAIN_KEYS},
    **{k: getattr(LossConfig, k) for k in LOSS_KEYS},
    "target_frame": -1,  # -1: middle frame
    "sfm_holes": 0.3,
    "sfm_noise": 0.05,
    "sfm_scale": 0.7,
    "teacher": None,
    "jobs": 1,  # checked and recorded only; see the module docstring
}

# simulate_sfm_labels' parameters and the config keys that set them
SFM_KEYS = {"hole_fraction": "sfm_holes", "noise_rel": "sfm_noise", "global_scale": "sfm_scale"}

# retired config keys and the values they are fixed at
RETIRED_KEYS = {"alpha": 0.85, "ssim_window": 3, "source_offsets": [-1, 1]}

EVAL_DEFAULTS = {
    "target_frame": -1,
    "median_scale": False,
    "gt_denominator": False,
}

CALIB_DEFAULTS = {
    "target_frame": -1,
    "median_scale": False,
    "levels": 99,
}

# the config keys each command takes as flags; the rest come from --config
SYNTH_FLAGS = ("seed", "frames", "width", "height", "step_mm", "texture_contrast",
               "light_intensity", "specular", "sway_mm")
TRAIN_FLAGS = ("regime", "members", "seed", "steps", "learning_rate", "grid",
               "teacher", "target_frame", "jobs")
EVAL_FLAGS = ("target_frame", "median_scale", "gt_denominator")
CALIB_FLAGS = ("target_frame", "median_scale", "levels")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _at_least_one(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] < 1:
            raise UsageError(f"{_flag(key)} must be >= 1, got {cfg[key]}")


def _resolve(defaults: dict, args) -> dict:
    """``defaults``, then the ``--config`` file's entries, then every flag
    given whose ``dest`` is a key of ``defaults`` (flags win).  A config
    entry for a key in ``RETIRED_KEYS`` must hold its fixed value, and is
    dropped."""
    out = dict(defaults)
    config = {}
    if args.config is not None:
        config = read_json(args.config)
        # manifests wrap the resolved config under "config"
        if "config" in config and isinstance(config["config"], dict):
            config = config["config"]
    for k, v in config.items():
        if k in RETIRED_KEYS:
            fixed = RETIRED_KEYS[k]
            if not (json_type_ok(v, fixed) and v == fixed):
                raise UsageError(f"config key {k!r} in {args.config} is fixed at "
                                 f"{fixed!r}, got {v!r}")
            continue
        if k not in out and k not in ("data", "out", "pred", "run"):
            raise UsageError(f"unknown config key {k!r}")
        default = defaults.get(k, "")  # the path keys are strings
        if not json_type_ok(v, default):
            expected = "str" if default is None else type(default).__name__
            raise UsageError(f"config key {k!r} in {args.config} must be "
                             f"{expected}, got {v!r}")
        out[k] = v
    for k, v in vars(args).items():
        if k in defaults and v is not None:
            out[k] = v
    return out


def _write_manifest(out_dir: Path, command: str, config: dict, **extra) -> None:
    """Reproducibility record: ``config`` replays through --config; any
    ``extra`` entries are derived facts, stored alongside."""
    write_json({"command": command, "config": config, **extra},
               out_dir / "manifest.json", indent=1, sort_keys=True)


def _refuse_foreign_manifest(out_dir: Path, *commands: str) -> None:
    """Refuse to write into ``out_dir`` when its ``manifest.json`` was
    written by a command other than ``commands``, since the manifest about
    to be written would replace it."""
    manifest = out_dir / "manifest.json"
    if manifest.exists():
        command = read_json(manifest).get("command")
        if command not in commands:
            raise UsageError(f"--out would replace the {command!r} manifest {manifest}")


def _synth_frames(manifest: dict) -> int:
    """The frame count a synth manifest's configuration holds."""
    if manifest.get("command") != "synth":
        raise ValueError(f"a {manifest.get('command')!r} manifest, not a synth manifest")
    return json_entry(manifest["config"], "frames", 0)


def _target_index(data_dir: Path, requested: int) -> tuple[int, int]:
    """The frame ``requested`` (-1: the middle one) and the dataset's frame
    count."""
    n_frames = read_json(data_dir / "manifest.json", _synth_frames)
    if requested == -1:
        return n_frames // 2, n_frames
    if not 0 <= requested < n_frames:
        raise UsageError(f"target frame {requested} outside 0..{n_frames - 1}")
    return requested, n_frames


def cmd_synth(args) -> int:
    cfg = _resolve(SYNTH_DEFAULTS, args)
    if cfg["frames"] < 3:
        raise UsageError("self-supervision needs triplets: --frames must be >= 3")
    _at_least_one(cfg, "width", "height")
    params = SceneParams(seed=cfg["seed"], **{k: cfg[k] for k in SCENE_KEYS})
    K = CameraIntrinsics(cfg["fx"], cfg["fy"], cfg["cx"], cfg["cy"])
    light = LightModel(intensity=cfg["light_intensity"], specular=cfg["specular"])
    out_dir = Path(args.out)
    _refuse_foreign_manifest(out_dir, "synth")
    write_dataset(
        out_dir, params, K, cfg["frames"], cfg["step_mm"], cfg["width"],
        cfg["height"], light, cfg["heading_noise_rad"], sway_mm=cfg["sway_mm"],
    )
    _write_manifest(out_dir, "synth", cfg)
    print(f"wrote {cfg['frames']} frames to {out_dir}")
    return 0


def _build_train_data(cfg: dict, regime: Regime, data_dir: Path,
                      config: str | None) -> tuple[TrainData, int]:
    """The regime's training bundle and the target frame index; a bad SfM
    setting is a usage error naming its key in the ``config`` file."""
    t_i, n = _target_index(data_dir, cfg["target_frame"])
    depth_path = data_dir / f"depth_{t_i:04d}.pfm"
    if regime == Regime.SUPERVISED_GT:
        data = TrainData(frames=(LabeledFrame(depth=read_pfm(depth_path)),))
    elif regime == Regime.SUPERVISED_SFM:
        sfm_seed = Xoshiro256(cfg["seed"]).substream("sfm-noise").seed
        d_gt = read_pfm(depth_path)
        try:
            d_sfm, mask = simulate_sfm_labels(
                d_gt, sfm_seed, **{param: cfg[key] for param, key in SFM_KEYS.items()})
        except ValueError as e:
            message = str(e)
            for param, key in SFM_KEYS.items():
                message = message.replace(param, f"config key {key!r} in {config}")
            raise UsageError(message) from None
        data = TrainData(frames=(LabeledFrame(depth=d_sfm, mask=mask),))
    elif regime == Regime.SELF_SUPERVISED:
        if not 0 < t_i < n - 1:
            raise UsageError(f"target frame {t_i} ends the {n}-frame trajectory in "
                             f"{data_dir}: self-supervision needs both neighbours")
        near = (t_i - 1, t_i + 1)
        poses = {i: Pose.load(data_dir / f"pose_{i:04d}.json") for i in (t_i, *near)}
        sources = tuple(read_ppm(data_dir / f"frame_{i:04d}.ppm") for i in near)
        rels = tuple(relative_pose(poses[t_i], poses[i]) for i in near)
        image = read_ppm(data_dir / f"frame_{t_i:04d}.ppm")
        K = read_json(data_dir / "intrinsics.json", CameraIntrinsics.from_json)
        data = TrainData(
            triplets=(Triplet(target=image, sources=sources, rel_poses=rels),), K=K)
    else:
        if not cfg.get("teacher"):
            raise UsageError(f"{regime.value} needs --teacher pointing at fused maps")
        ens = load_ensemble(Path(cfg["teacher"]))
        sigma = ens.sigma_t() if regime == Regime.UNCERTAIN_STUDENT else None
        data = TrainData(frames=(LabeledFrame(depth=ens.d_hat, sigma=sigma),))
    return data, t_i


def cmd_train(args) -> int:
    cfg = _resolve(TRAIN_DEFAULTS, args)
    _at_least_one(cfg, "members", "steps", "jobs")
    try:
        regime = Regime(cfg["regime"])
    except ValueError:
        raise UsageError(
            f"invalid regime {cfg['regime']!r}; valid: "
            + ", ".join(r.value for r in Regime)
        ) from None
    if cfg["teacher"] and regime not in (Regime.PLAIN_STUDENT, Regime.UNCERTAIN_STUDENT):
        raise UsageError(f"--teacher is for the student regimes; {regime.value} "
                         "reads no teacher")
    data_dir = Path(args.data if args.data else cfg.get("data", ""))
    if not (data_dir / "manifest.json").exists():
        raise UsageError(f"no dataset at {data_dir}")
    out_dir = Path(args.out)
    _refuse_foreign_manifest(out_dir, "train")
    tcfg = TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS},
                       loss=LossConfig(**{k: cfg[k] for k in LOSS_KEYS}), seed=cfg["seed"])
    data, t_i = _build_train_data(cfg, regime, data_dir, args.config)
    w, h = data.resolution()
    if tcfg.grid > min(w, h):
        raise UsageError(f"--grid {tcfg.grid} exceeds the {w}x{h} dataset at {data_dir}")
    # members by keyword: the bench's traced counter of this call reads it by name
    results = train_ensemble(data, tcfg, members=cfg["members"])
    # only a run that trained gets a directory
    out_dir.mkdir(parents=True, exist_ok=True)
    for field, report in results:
        field.save(out_dir / f"member_{field.seed}.json")
        write_csv([("step", "loss"), *enumerate(report.losses.tolist())],
                  out_dir / f"loss_{field.seed}.csv")
    cfg["data"] = str(data_dir)
    _write_manifest(out_dir, "train", cfg, resolution=[w, h],
                    target_index=t_i)
    print(f"trained {len(results)} member(s) [{regime.value}] into {out_dir}")
    return 0


def _member_seed(path: Path) -> int:
    """The seed in a member file's name, ``member_<seed>.json``."""
    try:
        return int(path.stem.split("_", 1)[1])
    except ValueError:
        raise UsageError(f"{path} is not named member_<seed>.json") from None


def _train_manifest(manifest: dict) -> tuple[bool, int, int]:
    """Whether a train manifest's run was self-supervised, and the width
    and height it trained at."""
    if manifest.get("command") != "train":
        raise ValueError(f"a {manifest.get('command')!r} manifest, not a train manifest")
    w, h = json_entry(manifest, "resolution", [0])
    return Regime(manifest["config"]["regime"]) == Regime.SELF_SUPERVISED, w, h


def cmd_fuse(args) -> int:
    run_dir, out_dir = Path(args.run), Path(args.out)
    _refuse_foreign_manifest(out_dir, "fuse")
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"no train manifest in {run_dir}")
    selfsup, w, h = read_json(manifest_path, _train_manifest)
    member_files = sorted(run_dir.glob("member_*.json"), key=lambda p: (_member_seed(p), p.name))
    if not member_files:
        raise UsageError(f"no member fields in {run_dir}")
    for first, second in zip(member_files, member_files[1:]):
        if _member_seed(first) == _member_seed(second):
            raise UsageError(f"{second} repeats the seed of {first}")
    fields = [DepthField.load(p) for p in member_files]
    for path, field in zip(member_files, fields):
        if field.seed != _member_seed(path):
            raise UsageError(f"{path} holds seed {field.seed}, not the seed in its name")
    preds = [forward(f, w, h) for f in fields]
    seeds = [f.seed for f in fields]
    out = selfsup_fuse([d for d, _ in preds], seeds) if selfsup else fuse(preds, seeds)
    save_ensemble(out, out_dir)
    _write_manifest(out_dir, "fuse", {"run": str(run_dir), "selfsup": selfsup,
                                      "seeds": seeds})
    print(f"fused {len(fields)} member(s) into {out_dir}")
    return 0


def _load_eval_inputs(args, cfg: dict) -> tuple[DepthMap, DepthMap, UncMap, int]:
    """Ground truth, predicted depth and its total std (both median-scaled
    to the ground truth when ``cfg`` asks, std floored at 1e-12), and the
    target frame index.  First refuses an ``--out`` whose directory holds
    the manifest of a command other than eval and calib."""
    _refuse_foreign_manifest(Path(args.out).parent, "eval", "calib")
    ens = load_ensemble(Path(args.pred))
    data_dir = Path(args.data)
    t_i, _ = _target_index(data_dir, cfg["target_frame"])
    gt_path = data_dir / f"depth_{t_i:04d}.pfm"
    gt = read_pfm(gt_path)
    if (gt.height, gt.width) != (ens.d_hat.height, ens.d_hat.width):
        raise UsageError(
            f"prediction {Path(args.pred) / 'depth_mean.pfm'} is "
            f"{ens.d_hat.width}x{ens.d_hat.height} but ground truth {gt_path} "
            f"is {gt.width}x{gt.height}")
    d_pred = ens.d_hat.data.astype(np.float64)
    sigma = ens.sigma_t().data.astype(np.float64)
    if cfg["median_scale"]:
        s = scale_correction(gt, ens.d_hat)
        d_pred = d_pred * s
        sigma = sigma * s
    return gt, DepthMap(d_pred), UncMap(np.maximum(sigma, 1e-12), "std"), t_i


def _write_scores(args, command: str, cfg: dict, t_i: int, rows: list) -> None:
    """``rows`` as CSV at ``--out``, and the manifest next to it."""
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out)
    _write_manifest(out.parent, command, {**cfg, "pred": str(args.pred),
                                          "data": str(args.data)},
                    target_index=t_i)


def cmd_eval(args) -> int:
    cfg = _resolve(EVAL_DEFAULTS, args)
    gt, d_pred, sigma, t_i = _load_eval_inputs(args, cfg)
    dm = depth_metrics(gt, d_pred, gt_denominator=cfg["gt_denominator"])
    signed, absolute = auce(calibration_curve(gt, d_pred, sigma))
    _write_scores(args, "eval", cfg, t_i, [
        list(dm.FIELDS) + ["auce_signed", "auce_abs"],
        dm.as_row() + [signed, absolute],
    ])
    print(f"abs_rel={dm.abs_rel:.4f} rmse={dm.rmse:.3f} auce_signed={signed:+.4f}")
    return 0


def cmd_calib(args) -> int:
    cfg = _resolve(CALIB_DEFAULTS, args)
    _at_least_one(cfg, "levels")
    gt, d_pred, sigma, t_i = _load_eval_inputs(args, cfg)
    curve = calibration_curve(
        gt, d_pred, sigma, p_grid=default_p_grid(cfg["levels"])
    )
    signed, absolute = auce(curve)
    _write_scores(args, "calib", cfg, t_i, [("p", "coverage"), *zip(
        curve.p_grid.tolist(), curve.coverage.tolist())])
    print(f"auce_signed={signed:+.4f} auce_abs={absolute:.4f}")
    return 0


def _add_command(sub, name: str, func, summary: str, paths: tuple[str, ...],
                 defaults: dict | None = None, keys: tuple[str, ...] = ()):
    """Subcommand ``name``: a required flag per path, then ``--config`` and
    one flag per config key in ``keys``, typed like its entry in
    ``defaults`` (``str`` for None) and ``--x/--no-x`` for booleans.  A flag
    not given parses to None, which leaves the config's value in place."""
    p = sub.add_parser(name, help=summary)
    for path in paths:
        p.add_argument("--" + path, required=True)
    if defaults is not None:
        p.add_argument("--config")
    for key in keys:
        default = defaults[key]
        if isinstance(default, bool):
            p.add_argument(_flag(key), dest=key, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(_flag(key), dest=key,
                           type=str if default is None else type(default))
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scopedepth", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    _add_command(sub, "synth", cmd_synth, "render a synthetic dataset", ("out",),
                 SYNTH_DEFAULTS, SYNTH_FLAGS)
    # train may take its dataset from the config's "data" entry instead
    _add_command(sub, "train", cmd_train, "train an ensemble of depth fields", ("out",),
                 TRAIN_DEFAULTS, TRAIN_FLAGS).add_argument("--data")
    _add_command(sub, "fuse", cmd_fuse, "fuse trained members into mean/variance maps",
                 ("run", "out"))
    _add_command(sub, "eval", cmd_eval, "depth metrics + AUCE as one CSV row",
                 ("pred", "data", "out"), EVAL_DEFAULTS, EVAL_FLAGS)
    _add_command(sub, "calib", cmd_calib, "calibration curve CSV + AUCE",
                 ("pred", "data", "out"), CALIB_DEFAULTS, CALIB_FLAGS)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
