import argparse
import builtins
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scopedepth
from scopedepth import cli
from scopedepth.cli import main
from scopedepth.ensemble import load_ensemble
from scopedepth.imagery import UncMap, read_pfm, write_pfm
from scopedepth.synthcolon import LightModel, SceneParams
from scopedepth.trainer import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    rc = run("synth", "--out", out, "--seed", 7, "--frames", 5,
             "--width", 24, "--height", 24)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = run("train", "--data", dataset, "--out", out, "--regime", "supervised-gt",
             "--members", 2, "--seed", 3, "--steps", 40, "--grid", 6)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fused(trained, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fused"
    assert run("fuse", "--run", trained, "--out", out) == 0
    return out


def _modules_loaded_by_cli_import(prefixes, argv=None):
    """Names of the modules starting with one of ``prefixes`` that a fresh
    interpreter holds after importing the CLI and, if ``argv`` is given,
    after running ``main(argv)``."""
    run_main = "" if argv is None else f"scopedepth.cli.main({[str(a) for a in argv]!r}); "
    code = ("import sys, scopedepth, scopedepth.cli; " + run_main +
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    src = str(Path(scopedepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs the CLI startup
    # time and memory on every run
    assert _modules_loaded_by_cli_import(["scipy"]) == "[]"


def test_import_loads_no_process_pool():
    # no command runs a process pool, so none should pay for importing
    # multiprocessing at start-up
    assert _modules_loaded_by_cli_import(["concurrent", "multiprocessing"]) == "[]"


def test_train_with_jobs_runs_in_process(dataset, tmp_path):
    # --jobs still parses, but the members train in the calling process
    out = tmp_path / "run"
    loaded = _modules_loaded_by_cli_import(
        ["concurrent", "multiprocessing"],
        ["train", "--data", dataset, "--out", out, "--members", 3, "--seed", 4,
         "--steps", 2, "--grid", 4, "--jobs", 2])
    assert loaded == "[]"
    assert sorted(p.name for p in out.glob("member_*.json")) == [
        "member_4.json", "member_5.json", "member_6.json"]


COMMAND_DEFAULTS = {"synth": cli.SYNTH_DEFAULTS, "train": cli.TRAIN_DEFAULTS,
                    "fuse": {}, "eval": cli.EVAL_DEFAULTS, "calib": cli.CALIB_DEFAULTS}


EXPECTED_FLAGS = {
    "synth": {"--out", "--config", "--seed", "--frames", "--width", "--height", "--step-mm",
              "--texture-contrast", "--light-intensity", "--specular", "--no-specular",
              "--sway-mm"},
    "train": {"--data", "--out", "--config", "--regime", "--members", "--seed", "--steps",
              "--learning-rate", "--grid", "--teacher", "--target-frame", "--jobs"},
    "fuse": {"--run", "--out"},
    "eval": {"--pred", "--data", "--out", "--config", "--target-frame", "--median-scale",
             "--no-median-scale", "--gt-denominator", "--no-gt-denominator"},
    "calib": {"--pred", "--data", "--out", "--config", "--target-frame", "--median-scale",
              "--no-median-scale", "--levels"},
}


# each field of the three config dataclasses: the config key that sets it
# and a valid value other than its default
CONFIG_KNOBS = {
    SceneParams: {
        "radius_mm": ("radius_mm", 13.0), "curve_amp_mm": ("curve_amp_mm", 9.0),
        "curve_freq": ("curve_freq", 0.04), "ridge_amp_mm": ("ridge_amp_mm", 2.5),
        "ridge_period_mm": ("ridge_period_mm", 12.0),
        "texture_octaves": ("texture_octaves", 2),
        "texture_contrast": ("texture_contrast", 0.5), "far_cap_mm": ("far_cap_mm", 70.0),
        "seed": ("seed", 4),
    },
    LightModel: {"intensity": ("light_intensity", 900.0), "specular": ("specular", True)},
    TrainConfig: {
        "steps": ("steps", 7), "learning_rate": ("learning_rate", 0.5), "grid": ("grid", 5),
        "depth_init_mm": ("depth_init_mm", 25.0), "jitter": ("jitter", 0.04),
        "sigma_min": ("sigma_min", 0.002), "lambda_u": ("lambda_u", 0.02),
        "weight_decay": ("weight_decay", 1e-6), "seed": ("seed", 9),
    },
}


class TestFlagWiring:
    def test_every_config_field_is_set_by_a_key(self, dataset, tmp_path, monkeypatch):
        for cls, knobs in CONFIG_KNOBS.items():
            assert [f.name for f in dataclasses.fields(cls)] == list(knobs), cls.__name__
        synth_cfg = {k: v for cls in (SceneParams, LightModel)
                     for k, v in CONFIG_KNOBS[cls].values()}
        train_cfg = dict(CONFIG_KNOBS[TrainConfig].values())
        (tmp_path / "synth.json").write_text(json.dumps(synth_cfg))
        (tmp_path / "train.json").write_text(json.dumps(train_cfg))
        # synth hands write_dataset the scene and the light, positionally
        written = []
        write_dataset = cli.write_dataset
        monkeypatch.setattr(cli, "write_dataset",
                            lambda *a, **kw: written.append(a) or write_dataset(*a, **kw))
        assert run("synth", "--config", tmp_path / "synth.json", "--out", tmp_path / "s",
                   "--frames", 3, "--width", 8, "--height", 8) == 0
        [(_, params, _, _, _, _, _, light, _)] = written
        trained = []
        monkeypatch.setattr(cli, "train_ensemble",
                            lambda data, cfg, **_: trained.append(cfg) or [])
        assert run("train", "--config", tmp_path / "train.json", "--data", dataset,
                   "--out", tmp_path / "t", "--regime", "self-supervised") == 0
        [tcfg] = trained
        configs = {SceneParams: vars(params), LightModel: vars(light), TrainConfig: vars(tcfg)}
        for cls, knobs in CONFIG_KNOBS.items():
            for name, (_, value) in knobs.items():
                assert configs[cls][name] == value != getattr(cls, name), (cls, name)

    def test_train_defaults_are_the_dataclass_defaults(self, dataset, tmp_path, monkeypatch):
        # a default ``train`` and a library caller that keeps the defaults
        # optimise one objective
        for name, (key, _) in CONFIG_KNOBS[TrainConfig].items():
            assert cli.TRAIN_DEFAULTS[key] == getattr(TrainConfig, name), name
        trained = []
        monkeypatch.setattr(cli, "train_ensemble",
                            lambda data, cfg, **_: trained.append(cfg) or [])
        assert run("train", "--data", dataset, "--out", tmp_path / "t") == 0
        assert trained == [TrainConfig()]

    def test_flag_sets_and_types(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings}
            assert flags - {"-h", "--help"} == EXPECTED_FLAGS[command], command
            paths = [s for a in parser._actions if a.required
                     for s in (a.option_strings[0], "x")]
            for key, default in COMMAND_DEFAULTS[command].items():
                flag = "--" + key.replace("_", "-")
                if flag not in flags:
                    continue
                argv = [flag] if isinstance(default, bool) else [flag, "1"]
                value = getattr(parser.parse_args(argv + paths), key)
                assert type(value) is (str if default is None else type(default)), (
                    command, key, value)

    def test_every_flag_is_a_config_key_or_a_path(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMAND_DEFAULTS)
        for command, parser in sub.choices.items():
            for action in parser._actions:
                assert (action.dest in COMMAND_DEFAULTS[command]
                        or action.dest in ("out", "data", "pred", "run", "config", "help")
                        ), (command, action.dest)

    def test_one_flag_per_command_reaches_the_manifest(self, dataset, fused, tmp_path):
        cases = (
            ("synth", tmp_path / "s", ["--out", tmp_path / "s", "--frames", 3, "--width", 8,
                                      "--height", 8, "--sway-mm", 0.5], "sway_mm", 0.5),
            ("train", tmp_path / "t", ["--data", dataset, "--out", tmp_path / "t",
                                      "--members", 1, "--steps", 2, "--grid", 4,
                                      "--learning-rate", 0.5], "learning_rate", 0.5),
            ("eval", tmp_path / "e", ["--pred", fused, "--data", dataset,
                                     "--out", tmp_path / "e" / "m.csv",
                                     "--gt-denominator"], "gt_denominator", True),
            ("calib", tmp_path / "c", ["--pred", fused, "--data", dataset,
                                      "--out", tmp_path / "c" / "c.csv",
                                      "--levels", 9], "levels", 9),
        )
        for command, out_dir, argv, key, value in cases:
            assert value != COMMAND_DEFAULTS[command][key]
            assert run(command, *argv) == 0
            with open(out_dir / "manifest.json") as f:
                assert json.load(f)["config"][key] == value, command


def _avx512_dispatch_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU supports."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)
            and (name.startswith("AVX512") or name == "X86_V4")]


@pytest.mark.parametrize("argv", [
    ["--seed", "21", "--frames", "12", "--width", "64", "--height", "64",
     "--sway-mm", "2.5"],
    ["--seed", "21", "--frames", "3", "--width", "128", "--height", "128",
     "--specular", "--sway-mm", "2.5"],
], ids=["quick-start", "128-specular"])
def test_synth_bytes_do_not_depend_on_simd_dispatch(tmp_path, argv):
    # synth in two fresh interpreters, one with numpy's AVX-512 kernels
    # switched off: the vectorised sin, cos and sqrt then run other code,
    # and every frame and depth file must still come out byte for byte
    targets = _avx512_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    code = ("import sys; "
            "from numpy._core._multiarray_umath import __cpu_features__ as cpu; "
            f"print([cpu[name] for name in {targets!r}]); "
            "from scopedepth.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(scopedepth.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = src
    files = []
    for capped in (False, True):
        out = tmp_path / ("capped" if capped else "native")
        run_env = {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)} if capped else env
        proc = subprocess.run([sys.executable, "-c", code, "synth", "--out", str(out), *argv],
                              env=run_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == str([not capped] * len(targets))
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.suffix in (".ppm", ".pfm")})
    native, capped = files
    assert len(native) == 2 * int(argv[3])
    assert native.keys() == capped.keys()
    for name in native:
        assert native[name] == capped[name], name


class TestSynth:
    def test_manifest_written_once(self, tmp_path, monkeypatch):
        manifest = tmp_path / "ds" / "manifest.json"
        writes = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if "w" in mode and isinstance(file, (str, os.PathLike)) and Path(file) == manifest:
                writes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert run("synth", "--out", manifest.parent, "--frames", 3, "--width", 8,
                   "--height", 8) == 0
        assert len(writes) == 1

    def test_layout_and_manifest(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert "manifest.json" in names and "intrinsics.json" in names
        assert "frame_0004.ppm" in names and "depth_0000.pfm" in names
        with open(dataset / "manifest.json") as f:
            m = json.load(f)
        assert m["command"] == "synth" and m["config"]["seed"] == 7
        # each setting once: the resolved configuration is the whole record
        assert set(m) == {"command", "config"} and m["config"]["frames"] == 5

    def test_dataset_with_an_older_manifest_still_loads(self, dataset, fused, tmp_path):
        # synth manifests once repeated the dataset description beside the
        # resolved configuration; such a dataset scores and replays as before
        old = tmp_path / "old"
        shutil.copytree(dataset, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest.update(n_frames=5, frames=list(range(5)), width=24, height=24,
                        step_mm=1.0, heading_noise_rad=0.008, sway_mm=0.0,
                        params={"seed": 7}, light={"intensity": 1000.0})
        (old / "manifest.json").write_text(json.dumps(manifest))
        scores = [tmp_path / "scores" / name / "m.csv" for name in ("new", "old")]
        for data, out in zip((dataset, old), scores):
            assert run("eval", "--pred", fused, "--data", data, "--out", out) == 0
        assert scores[0].read_bytes() == scores[1].read_bytes()
        assert run("synth", "--config", old / "manifest.json", "--out", tmp_path / "again") == 0
        assert ((tmp_path / "again" / "manifest.json").read_bytes()
                == (dataset / "manifest.json").read_bytes())

    def test_single_frame_usage_error(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--frames", 1) == 2

    def test_zero_size_image_usage_error(self, tmp_path, capsys):
        for flag, size in (("--width", 0), ("--height", -2)):
            other = "--height" if flag == "--width" else "--width"
            out = tmp_path / flag.lstrip("-")
            assert run("synth", "--out", out, "--frames", 3, flag, size, other, 8) == 2
            assert flag in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_nonpositive_light_intensity_usage_error(self, tmp_path, capsys):
        for value in ("-1", "0", "nan"):
            out = tmp_path / f"light{value}"
            assert run("synth", "--out", out, "--frames", 3, "--width", 8, "--height", 8,
                       "--light-intensity", value) == 2
            err = capsys.readouterr().err
            assert "light intensity" in err and f"got {float(value)}" in err
            assert not out.exists()

    def test_unwritable_output_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert run("synth", "--out", blocker / "ds", "--frames", 3) == 2

    def test_no_specular_overrides_config(self, dataset, fused, tmp_path):
        # every boolean config key: --no-x switches off a config's true, and
        # --x switches it back on
        scored = ["--pred", fused, "--data", dataset]
        cases = (
            ("synth", "specular", None, ["--frames", 3, "--width", 8, "--height", 8]),
            ("eval", "median_scale", "m.csv", scored),
            ("eval", "gt_denominator", "m.csv", scored),
            ("calib", "median_scale", "c.csv", scored),
        )
        for command, key, out_name, argv in cases:
            assert COMMAND_DEFAULTS[command][key] is False
            cfg = tmp_path / f"{command}-{key}.json"
            cfg.write_text(json.dumps({key: True}))
            flag = "--" + key.replace("_", "-")
            for given, expected in (("--no-" + flag[2:], False), (flag, True)):
                out = tmp_path / command / given.lstrip("-")
                out_arg = out / out_name if out_name else out
                assert run(command, "--out", out_arg, "--config", cfg, given, *argv) == 0
                with open(out / "manifest.json") as f:
                    assert json.load(f)["config"][key] is expected, (command, given)

    def test_non_finite_scene_and_trajectory_usage_error(self, tmp_path, capsys):
        heading = tmp_path / "heading.json"
        heading.write_text(json.dumps({"heading_noise_rad": float("nan")}))
        cases = (("step_mm", ["--step-mm", "nan"]), ("sway_mm", ["--sway-mm", "nan"]),
                 ("texture_contrast", ["--texture-contrast", "nan"]),
                 ("heading_noise_rad", ["--config", heading]))
        for key, argv in cases:
            out = tmp_path / key
            assert run("synth", "--out", out, "--frames", 3, "--width", 8,
                       "--height", 8, *argv) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err and "got nan" in err
            assert not out.exists()

    def test_non_finite_intrinsics_usage_error(self, tmp_path, capsys):
        # a NaN principal point once wrote every depth pixel as a far-cap
        # miss and a non-standard NaN token into intrinsics.json
        for key, value in (("cx", "nan"), ("fx", "inf"), ("cy", "-inf")):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: float(value)}))
            out = tmp_path / key
            assert run("synth", "--out", out, "--config", cfg, "--frames", 3,
                       "--width", 8, "--height", 8) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err and f"got {value}" in err
            assert not out.exists()

    def test_nonpositive_scene_scale_usage_error(self, tmp_path, capsys):
        # a zero ridge period once divided by zero in the step bound, and
        # zero octaves rendered one while the manifest recorded none
        for key, value in (("ridge_period_mm", 0), ("ridge_period_mm", -14.0),
                           ("texture_octaves", 0)):
            cfg = tmp_path / f"{key}{value}.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / f"{key}{value}"
            assert run("synth", "--out", out, "--config", cfg, "--frames", 3,
                       "--width", 8, "--height", 8) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err and f"got {value}" in err
            assert not out.exists()

    def test_scene_length_above_a_million_mm_usage_error(self, tmp_path, capsys):
        # the wall field squares lengths, which overflows near 1e154 mm
        for key, value in (("radius_mm", 2e6), ("curve_amp_mm", -1e7),
                           ("far_cap_mm", 1e155)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / key
            assert run("synth", "--out", out, "--config", cfg, "--frames", 3,
                       "--width", 8, "--height", 8) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err and f"got {value}" in err
            assert not out.exists()

    def test_config_that_is_not_an_object_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([1, 2]))
        out = tmp_path / "ds"
        assert run("synth", "--out", out, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err and "got list" in err
        assert not out.exists()

    def test_config_value_of_the_wrong_type_usage_error(self, tmp_path, capsys):
        cases = (("synth", "frames", "5"), ("synth", "width", 8.0),
                 ("synth", "specular", 1), ("synth", "fx", True), ("synth", "fx", None),
                 ("train", "teacher", 3))
        for command, key, value in cases:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / "bad"
            assert run(command, "--out", out, "--config", cfg) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("error:") and repr(key) in err and str(cfg) in err
            assert f"got {value!r}" in err
            assert not out.exists()
        # an int stands for a float
        cfg.write_text(json.dumps({"step_mm": 1, "fx": 6}))
        assert run("synth", "--out", tmp_path / "ok", "--config", cfg, "--frames", 3,
                   "--width", 8, "--height", 8) == 0
        with open(tmp_path / "ok" / "manifest.json") as f:
            assert json.load(f)["config"]["fx"] == 6

    def test_rerun_from_manifest_bit_identical(self, dataset, tmp_path):
        rc = run("synth", "--config", dataset / "manifest.json", "--out", tmp_path / "again")
        assert rc == 0
        for p in dataset.iterdir():
            if p.suffix in (".ppm", ".pfm") or p.name in ("intrinsics.json",):
                q = tmp_path / "again" / p.name
                assert q.read_bytes() == p.read_bytes(), p.name


class TestTrain:
    def test_member_artifacts(self, trained):
        assert (trained / "member_3.json").exists()
        assert (trained / "member_4.json").exists()
        with open(trained / "loss_3.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss"] and len(rows) == 41

    def test_invalid_regime_exit_code(self, dataset, tmp_path):
        rc = run("train", "--data", dataset, "--out", tmp_path / "x",
                 "--regime", "nonsense")
        assert rc == 2

    def test_student_without_teacher_exit_code(self, dataset, tmp_path):
        rc = run("train", "--data", dataset, "--out", tmp_path / "x",
                 "--regime", "uncertain-student", "--steps", 5)
        assert rc == 2

    def test_teacher_for_a_regime_that_reads_none_usage_error(self, dataset, fused,
                                                             tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train_ensemble", lambda *a, **kw: trained.append(a) or [])
        for regime in ("supervised-gt", "supervised-sfm", "self-supervised"):
            out = tmp_path / regime
            assert run("train", "--data", dataset, "--out", out, "--regime", regime,
                       "--teacher", fused, "--members", 1, "--steps", 2, "--grid", 4) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--teacher" in err and regime in err
            assert not out.exists()
        assert not trained

    def test_teacher_of_another_size_usage_error(self, fused, tmp_path, capsys):
        # the fused teacher is 24x24; a student on a 16-wide, 24-high
        # dataset once trained, and recorded the teacher's resolution
        # beside the other dataset's path
        data = tmp_path / "ds16x24"
        assert run("synth", "--out", data, "--seed", 7, "--frames", 3,
                   "--width", 16, "--height", 24) == 0
        for regime in ("plain-student", "uncertain-student"):
            out = tmp_path / regime
            assert run("train", "--data", data, "--out", out, "--regime", regime,
                       "--teacher", fused, "--members", 1, "--steps", 2, "--grid", 4) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"teacher {fused} is 24x24 but the dataset {data} is 16x24" in err
            assert not out.exists()

    def test_selfsup_target_at_a_trajectory_end_usage_error(self, dataset, tmp_path, capsys):
        for frame in (0, 4):
            out = tmp_path / str(frame)
            assert run("train", "--data", dataset, "--out", out, "--regime", "self-supervised",
                       "--target-frame", frame, "--members", 1, "--steps", 2,
                       "--grid", 4) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"target frame {frame}" in err
            assert "self-supervision needs both neighbours" in err
            assert not out.exists()

    def test_data_that_is_not_a_synth_dataset_usage_error(self, trained, fused, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        argvs = (["train", "--data", trained, "--out", out, "--steps", 2, "--grid", 4],
                 ["eval", "--pred", fused, "--data", trained, "--out", out / "m.csv"])
        for argv in argvs:
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert str(trained / "manifest.json") in err and "not a synth manifest" in err
            assert not out.exists()

    def test_failed_run_leaves_no_directory(self, dataset, tmp_path):
        # a usage error found while building the data, and a numeric
        # failure in training, both leave --out uncreated
        cases = ((2, ["--regime", "uncertain-student"]),
                 (3, ["--learning-rate", 1e308]))
        for code, argv in cases:
            out = tmp_path / str(code)
            assert run("train", "--data", dataset, "--out", out, "--members", 1,
                       "--steps", 2, "--grid", 4, *argv) == code
            assert not out.exists()

    def test_non_finite_training_setting_usage_error(self, dataset, tmp_path, capsys):
        # json reads NaN and Infinity; a NaN weight once skipped its term and
        # trained on, and an infinite one failed as a numeric step
        for key in ("lambda_u", "weight_decay", "sigma_min", "depth_init_mm", "jitter"):
            for value in (float("nan"), float("inf")):
                cfg = tmp_path / f"{key}{value}.json"
                cfg.write_text(json.dumps({key: value}))
                for regime in ("supervised-sfm", "self-supervised"):
                    out = tmp_path / f"{key}{value}{regime}"
                    assert run("train", "--data", dataset, "--out", out, "--config", cfg,
                               "--regime", regime, "--members", 1, "--steps", 2,
                               "--grid", 4) == 2, (key, value, regime)
                    err = capsys.readouterr().err
                    assert err.startswith("error:") and key in err and f"got {value}" in err
                    assert not out.exists()

    def test_out_of_range_loss_setting_usage_error(self, dataset, tmp_path, capsys):
        for key, value in (("sigma_min", 0.0), ("lambda_u", -0.01), ("weight_decay", -1e-7)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / key
            assert run("train", "--data", dataset, "--out", out, "--config", cfg,
                       "--members", 1, "--steps", 2, "--grid", 4) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err
            assert not out.exists()

    def test_bad_sfm_setting_names_its_config_key(self, dataset, tmp_path, capsys):
        # simulate_sfm_labels names its own parameters, which are no config keys
        for key, value in (("sfm_noise", float("nan")), ("sfm_holes", 1.0), ("sfm_scale", 0)):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / key
            assert run("train", "--data", dataset, "--out", out, "--config", cfg,
                       "--regime", "supervised-sfm", "--members", 1, "--steps", 1,
                       "--grid", 4) == 2, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"config key {key!r} in {cfg}" in err
            assert not out.exists()

    def test_zero_grid_usage_error(self, dataset, tmp_path, capsys):
        rc = run("train", "--data", dataset, "--out", tmp_path / "x",
                 "--members", 1, "--steps", 5, "--grid", 0)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grid" in err

    def test_grid_above_dataset_resolution_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert run("synth", "--out", ds, "--width", 8, "--height", 8, "--frames", 3) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert run("train", "--data", ds, "--out", out, "--members", 1, "--steps", 5,
                   "--grid", 30) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--grid 30" in err and str(ds) in err and "8x8" in err
        assert not out.exists()

    def test_selfsup_on_image_smaller_than_ssim_window(self, tmp_path):
        ds = tmp_path / "ds"
        assert run("synth", "--out", ds, "--width", 8, "--height", 2, "--frames", 3) == 0
        assert run("train", "--data", ds, "--out", tmp_path / "run",
                   "--regime", "self-supervised", "--members", 1, "--steps", 5,
                   "--grid", 2) == 0
        with open(tmp_path / "run" / "loss_0.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5 and all(np.isfinite(float(r["loss"])) for r in rows)

    def test_non_finite_intrinsics_file_usage_error(self, tmp_path, capsys):
        # an edited intrinsics.json: NaN, and a number written as a string
        ds = tmp_path / "ds"
        assert run("synth", "--out", ds, "--width", 8, "--height", 8, "--frames", 3) == 0
        with open(ds / "intrinsics.json") as f:
            K = json.load(f)
        for cx, message in ((float("nan"), "intrinsics cx must be finite"),
                            ("31.5", "entry 'cx' must be float")):
            (ds / "intrinsics.json").write_text(json.dumps({**K, "cx": cx}))
            out = tmp_path / "run"
            assert run("train", "--data", ds, "--out", out, "--regime", "self-supervised",
                       "--members", 1, "--steps", 2, "--grid", 2) == 2, cx
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert not out.exists()

    def test_nonpositive_jobs_usage_error(self, dataset, tmp_path, capsys):
        for jobs in (0, -1):
            out = tmp_path / f"jobs{jobs}"
            assert run("train", "--data", dataset, "--out", out, "--members", 2,
                       "--steps", 2, "--grid", 4, "--jobs", jobs) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"--jobs must be >= 1, got {jobs}" in err
            assert not out.exists()

    def test_nonpositive_members_or_steps_usage_error(self, dataset, tmp_path, capsys):
        for flag, value in (("--members", 0), ("--members", -2), ("--steps", 0)):
            out = tmp_path / f"{flag[2:]}{value}"
            assert run("train", "--data", dataset, "--out", out, "--members", 2,
                       "--steps", 2, "--grid", 4, flag, value) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"{flag} must be >= 1, got {value}" in err
            assert not out.exists()

    def test_missing_dataset_exit_code(self, tmp_path):
        rc = run("train", "--data", tmp_path / "absent", "--out", tmp_path / "x")
        assert rc == 2

    def test_diverging_run_reports_once(self, dataset, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--data", dataset, "--out", tmp_path / "x",
                     "--members", 1, "--seed", 11, "--steps", 20, "--grid", 6,
                     "--learning-rate", 1e6)
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:")
        assert "member seed 11" in lines[0]
        assert "learning rate 1000000.0" in lines[0]


    def test_overflowing_update_is_numeric_failure(self, dataset, tmp_path, capsys):
        # the update overflows to inf before any loss turns non-finite, at
        # any --jobs
        for jobs in (1, 2):
            rc = run("train", "--data", dataset, "--out", tmp_path / f"j{jobs}",
                     "--members", 2, "--seed", 11, "--steps", 3, "--grid", 4,
                     "--learning-rate", 1e308, "--jobs", jobs)
            assert rc == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(
                "numeric failure: member seed 11, learning rate 1e+308, step 0:")

    def test_non_finite_learning_rate_usage_error(self, dataset, tmp_path, capsys):
        for value in ("nan", "inf"):
            out = tmp_path / value
            assert run("train", "--data", dataset, "--out", out, "--members", 1,
                       "--steps", 2, "--grid", 4, "--learning-rate", value) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "learning_rate" in err
            assert f"got {value}" in err
            assert not out.exists()


class TestRetiredTrainKeys:
    FIXED = {"alpha": 0.85, "ssim_window": 3, "source_offsets": [-1, 1]}

    def _selfsup(self, dataset, out, *argv):
        return run("train", "--data", dataset, "--out", out, "--regime", "self-supervised",
                   "--members", 2, "--seed", 2, "--steps", 4, "--grid", 4, *argv)

    def test_manifest_holding_the_fixed_values_replays(self, dataset, tmp_path):
        assert cli.RETIRED_KEYS == self.FIXED
        new = tmp_path / "new"
        assert self._selfsup(dataset, new) == 0
        manifest = json.loads((new / "manifest.json").read_text())
        assert not set(self.FIXED) & set(manifest["config"])
        # a manifest as train wrote it before the keys were retired
        old = tmp_path / "old.json"
        manifest["config"].update(self.FIXED)
        old.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        assert run("train", "--config", old, "--out", replay) == 0
        for name in ("member_2.json", "member_3.json", "loss_2.csv", "loss_3.csv"):
            assert (replay / name).read_bytes() == (new / name).read_bytes(), name
        assert (replay / "manifest.json").read_bytes() == (new / "manifest.json").read_bytes()

    def test_any_other_value_usage_error(self, dataset, tmp_path, capsys):
        cases = (("alpha", 0.8), ("ssim_window", 5), ("source_offsets", [-2, 2]),
                 ("source_offsets", [0.5, 1]), ("ssim_window", 3.0))
        for key, value in cases:
            cfg = tmp_path / "old.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / "run"
            assert self._selfsup(dataset, out, "--config", cfg) == 2, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("error:") and repr(key) in err and str(cfg) in err
            assert f"fixed at {self.FIXED[key]!r}, got {value!r}" in err
            assert not out.exists()


class TestFuseEvalCalib:
    def test_fuse_outputs(self, fused):
        out = load_ensemble(fused)
        assert sorted(p.name for p in fused.iterdir()) == [
            "depth_mean.pfm", "manifest.json", "var_aleatoric.pfm", "var_epistemic.pfm",
            "var_total.pfm"]
        assert json.loads((fused / "manifest.json").read_text())["config"]["seeds"] == [3, 4]
        assert np.array_equal(out.var_t.data, out.var_a.data + out.var_e.data)

    def test_eval_csv_row(self, fused, dataset, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", fused, "--data", dataset, "--out", out) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["abs_rel", "sq_rel", "rmse", "rmse_log", "delta1",
                           "delta2", "delta3", "auce_signed", "auce_abs"]
        vals = [float(v) for v in rows[1]]
        assert len(vals) == 9 and all(np.isfinite(vals))

    def test_eval_perfect_prediction_zeros(self, dataset, tmp_path):
        # hand-assemble a "prediction" equal to the ground truth
        from scopedepth.ensemble import EnsembleOutput, save_ensemble

        gt = read_pfm(dataset / "depth_0002.pfm")
        zero = np.zeros((gt.height, gt.width), dtype=np.float32)
        out = EnsembleOutput(gt, *(UncMap(zero, "variance"),) * 3)
        save_ensemble(out, tmp_path / "perfect")
        csv_path = tmp_path / "m.csv"
        assert run("eval", "--pred", tmp_path / "perfect", "--data", dataset,
                   "--out", csv_path) == 0
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        vals = dict(zip(rows[0], map(float, rows[1])))
        assert vals["abs_rel"] == 0 and vals["rmse"] == 0
        assert vals["delta1"] == 1 and vals["delta3"] == 1

    def test_median_scale_restores_rescaled_prediction(self, dataset, tmp_path):
        from scopedepth.ensemble import EnsembleOutput, save_ensemble
        from scopedepth.imagery import DepthMap

        gt = read_pfm(dataset / "depth_0002.pfm")
        zero = np.zeros((gt.height, gt.width), dtype=np.float32)
        scaled = EnsembleOutput(DepthMap(gt.data * 0.25), *(UncMap(zero, "variance"),) * 3)
        save_ensemble(scaled, tmp_path / "scaled")
        csv_path = tmp_path / "s.csv"
        assert run("eval", "--pred", tmp_path / "scaled", "--data", dataset,
                   "--out", csv_path, "--median-scale") == 0
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        vals = dict(zip(rows[0], map(float, rows[1])))
        assert vals["abs_rel"] < 1e-6 and vals["delta1"] == 1.0
        # replaying that manifest with --no-median-scale scores the raw 0.25x:
        # abs_rel = |d - gt| / d = 3 with the default prediction denominator
        raw = tmp_path / "raw" / "s.csv"
        assert run("eval", "--pred", tmp_path / "scaled", "--data", dataset, "--out", raw,
                   "--config", tmp_path / "manifest.json", "--no-median-scale") == 0
        with open(raw) as f:
            rows = list(csv.reader(f))
        assert abs(dict(zip(rows[0], map(float, rows[1])))["abs_rel"] - 3.0) < 1e-6

    def test_fuse_rejects_non_train_manifest(self, dataset, tmp_path, capsys):
        rc = run("fuse", "--run", dataset, "--out", tmp_path / "f")
        assert rc == 2
        err = capsys.readouterr().err
        assert str(dataset / "manifest.json") in err and "'synth'" in err

    def test_calib_curve_csv(self, fused, dataset, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("calib", "--pred", fused, "--data", dataset, "--out", out,
                   "--levels", 19) == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["p", "coverage"] and len(rows) == 20
        ps = [float(r[0]) for r in rows[1:]]
        cov = [float(r[1]) for r in rows[1:]]
        assert ps == [round(0.05 * i, 10) for i in range(1, 20)]
        assert all(0 <= c <= 1 for c in cov)
        assert cov == sorted(cov)

    def test_calib_levels_below_one_usage_error(self, fused, dataset, tmp_path, capsys):
        for levels in (0, -3):
            out = tmp_path / f"levels{levels}"
            assert run("calib", "--pred", fused, "--data", dataset,
                       "--out", out / "curve.csv", "--levels", levels) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"--levels must be >= 1, got {levels}" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "calib", "train", "fuse", "synth"])
    def test_scores_refuse_to_replace_an_input_manifest(self, command, trained, fused, dataset,
                                                        tmp_path, capsys):
        # every command refuses an --out whose manifest another command wrote
        ds, run_dir = tmp_path / "ds", tmp_path / "run"
        shutil.copytree(dataset, ds)
        shutil.copytree(trained, run_dir)
        score = ["--pred", fused, "--data", ds, "--out", ds / "scores.csv"]
        target, argv = {
            "eval": (ds, ["eval", *score]),
            "calib": (ds, ["calib", *score]),
            "train": (ds, ["train", "--data", ds, "--out", ds, "--regime", "supervised-gt",
                           "--members", 1, "--steps", 1, "--grid", 4]),
            "fuse": (run_dir, ["fuse", "--run", run_dir, "--out", run_dir]),
            "synth": (run_dir, ["synth", "--out", run_dir, "--frames", 3, "--width", 8,
                                "--height", 8]),
        }[command]
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        assert run(*argv) == 2
        err = capsys.readouterr().err
        owner = "'synth'" if target == ds else "'train'"
        assert err.startswith("error:") and str(target / "manifest.json") in err and owner in err
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        # so the dataset still trains and the run still fuses
        assert run("train", "--data", ds, "--out", tmp_path / "run2", "--regime",
                   "supervised-gt", "--members", 1, "--steps", 1, "--grid", 4) == 0
        assert run("fuse", "--run", run_dir, "--out", tmp_path / "fused2") == 0

    def test_commands_replace_their_own_manifest(self, dataset, trained, fused, tmp_path):
        ds, run_dir, pred = tmp_path / "ds", tmp_path / "run", tmp_path / "fused"
        for src, dst in ((dataset, ds), (trained, run_dir), (fused, pred)):
            shutil.copytree(src, dst)
        for argv, out in ((["synth", "--config", ds / "manifest.json", "--out", ds], ds),
                          (["train", "--config", run_dir / "manifest.json", "--out", run_dir],
                           run_dir),
                          (["fuse", "--run", run_dir, "--out", pred], pred)):
            assert run(*argv) == 0, argv[0]
            assert json.loads((out / "manifest.json").read_text())["command"] == argv[0]

    def test_scores_replace_a_scores_manifest(self, fused, dataset, tmp_path):
        out = tmp_path / "scores"
        for command, name in (("eval", "m.csv"), ("calib", "c.csv"), ("eval", "m.csv")):
            assert run(command, "--pred", fused, "--data", dataset, "--out", out / name) == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == "eval"

    def test_dimension_mismatch_exit_code(self, fused, tmp_path, capsys):
        other = tmp_path / "other_ds"
        assert run("synth", "--out", other, "--seed", 1, "--frames", 3,
                   "--width", 16, "--height", 16) == 0
        capsys.readouterr()
        rc = run("eval", "--pred", fused, "--data", other, "--out", tmp_path / "x.csv")
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"prediction {fused / 'depth_mean.pfm'} is 24x24 but ground truth "
                f"{other / 'depth_0001.pfm'} is 16x16") in err


def _spoil_input(case, dataset, trained, fused, tmp):
    """Copy the inputs, spoil one file as ``case`` says, and return the
    argv that reads it and the spoiled file (the fused directory when its
    maps disagree in size)."""
    ds, run_dir, pred = tmp / "ds", tmp / "run", tmp / "fused"
    for src, dst in ((dataset, ds), (trained, run_dir), (fused, pred)):
        shutil.copytree(src, dst)
    score = ["eval", "--pred", pred, "--data", ds, "--out", tmp / "eval" / "m.csv"]
    fuse = ["fuse", "--run", run_dir, "--out", tmp / "f"]
    selfsup = ["train", "--data", ds, "--out", tmp / "r", "--regime", "self-supervised",
               "--members", 1, "--steps", 1, "--grid", 4]
    if case == "malformed-config":
        bad = tmp / "config.json"
        bad.write_text('{"frames": 3,')
        return ["synth", "--out", tmp / "ds2", "--config", bad], bad
    if case == "stray-member-file":
        bad = run_dir / "member_x.json"
        shutil.copy(run_dir / "member_3.json", bad)
        return fuse, bad
    if case == "repeated-member-seed":
        # a copy named member_03.json would fuse seed 3 twice; train writes
        # member_3.json, so that name is the one refused
        shutil.copy(run_dir / "member_3.json", run_dir / "member_03.json")
        return fuse, run_dir / "member_03.json"
    if case == "three-channel-fused-variance":
        bad = pred / "var_total.pfm"
        bad.write_bytes(b"PF\n24 24\n-1.0\n" + np.zeros((24, 24, 3), "<f4").tobytes())
        return score, bad
    if case == "fused-maps-of-two-sizes":
        write_pfm(UncMap(np.zeros((16, 16)), "variance"), pred / "var_total.pfm")
        return score, pred
    truncated = {"truncated-depth": (ds / "depth_0002.pfm", score),
                 "truncated-frame": (ds / "frame_0002.ppm", selfsup),
                 "truncated-fused-variance": (pred / "var_total.pfm", score)}
    if case in truncated:
        bad, argv = truncated[case]
        bad.write_bytes(bad.read_bytes()[:-8])
        return argv, bad
    bad, argv, spoil = {
        "train-manifest-without-resolution":
            (run_dir / "manifest.json", fuse, lambda m: m.pop("resolution")),
        "dataset-manifest-without-n-frames":
            (ds / "manifest.json", score, lambda m: m["config"].pop("frames")),
        "pose-rotation-of-three-entries":
            (ds / "pose_0002.json", selfsup, lambda m: m.update(R=m["R"][:3])),
        "empty-member-file": (run_dir / "member_3.json", fuse, lambda m: m.clear()),
        "train-config-without-regime":
            (run_dir / "manifest.json", fuse, lambda m: m["config"].pop("regime")),
        "dataset-frame-count-as-string":
            (ds / "manifest.json", score,
             lambda m: m["config"].update(frames=str(m["config"]["frames"]))),
        "train-resolution-as-number":
            (run_dir / "manifest.json", fuse, lambda m: m.update(resolution=24)),
        "member-seed-as-string": (run_dir / "member_3.json", fuse, lambda m: m.update(seed="3")),
        "member-seed-as-float": (run_dir / "member_3.json", fuse, lambda m: m.update(seed=3.7)),
        "member-seed-as-boolean": (run_dir / "member_3.json", fuse, lambda m: m.update(seed=True)),
        "member-seed-not-its-name":
            (run_dir / "member_3.json", fuse, lambda m: m.update(seed=5)),
        "member-grid-entry-as-string":
            (run_dir / "member_3.json", fuse,
             lambda m: m["log_depth"].__setitem__(0, str(m["log_depth"][0]))),
        "member-grid-entry-as-boolean":
            (run_dir / "member_3.json", fuse, lambda m: m["log_sigma"].__setitem__(0, True)),
        "pose-rotation-as-strings":
            (ds / "pose_0002.json", selfsup, lambda m: m.update(R=[str(v) for v in m["R"]])),
        "pose-translation-entry-as-boolean":
            (ds / "pose_0002.json", selfsup, lambda m: m["t"].__setitem__(0, True)),
        "intrinsics-fx-as-boolean": (ds / "intrinsics.json", selfsup, lambda m: m.update(fx=True)),
    }[case]
    manifest = json.loads(bad.read_text())
    spoil(manifest)
    bad.write_text(json.dumps(manifest))
    return argv, bad


def _assert_named_usage_error(argv, bad, capsys):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["malformed-config", "stray-member-file", "repeated-member-seed",
                                  "train-manifest-without-resolution",
                                  "dataset-manifest-without-n-frames",
                                  "pose-rotation-of-three-entries",
                                  "empty-member-file", "train-config-without-regime",
                                  "dataset-frame-count-as-string",
                                  "train-resolution-as-number", "member-seed-as-string",
                                  "member-seed-as-float", "member-seed-as-boolean",
                                  "member-seed-not-its-name", "member-grid-entry-as-string",
                                  "member-grid-entry-as-boolean", "pose-rotation-as-strings",
                                  "pose-translation-entry-as-boolean",
                                  "intrinsics-fx-as-boolean"])
def test_bad_json_input_named_with_usage_error(case, dataset, trained, fused,
                                                 tmp_path, capsys):
    _assert_named_usage_error(*_spoil_input(case, dataset, trained, fused, tmp_path),
                              capsys)


@pytest.mark.parametrize("name", ["member_1_0.json", "member_+3.json", "member_ 3.json",
                                  "member_03.json", "member_-0.json"])
def test_member_not_named_as_train_names_it_usage_error(name, trained, tmp_path, capsys):
    # the member holds the seed int() reads from the name, so only the
    # name is wrong
    run_dir = tmp_path / "run"
    shutil.copytree(trained, run_dir)
    member = json.loads((run_dir / "member_3.json").read_text())
    member["seed"] = int(name.removeprefix("member_").removesuffix(".json"))
    (run_dir / "member_3.json").unlink()
    bad = run_dir / name
    bad.write_text(json.dumps(member))
    _assert_named_usage_error(["fuse", "--run", run_dir, "--out", tmp_path / "f"], bad, capsys)


def test_negative_seeds_train_and_fuse(dataset, tmp_path):
    run_dir, out = tmp_path / "run", tmp_path / "fused"
    assert run("train", "--data", dataset, "--out", run_dir, "--regime", "supervised-gt",
               "--members", 2, "--seed", -3, "--steps", 2, "--grid", 6) == 0
    assert sorted(p.name for p in run_dir.glob("member_*.json")) == [
        "member_-2.json", "member_-3.json"]
    assert run("fuse", "--run", run_dir, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seeds"] == [-3, -2]


@pytest.mark.parametrize("case", ["truncated-depth", "truncated-frame",
                                  "truncated-fused-variance", "three-channel-fused-variance",
                                  "fused-maps-of-two-sizes"])
def test_bad_raster_input_named_with_usage_error(case, dataset, trained, fused,
                                                   tmp_path, capsys):
    _assert_named_usage_error(*_spoil_input(case, dataset, trained, fused, tmp_path),
                              capsys)


class TestDeterminismAcrossJobs:
    def test_train_jobs_bit_identical(self, dataset, tmp_path):
        a = tmp_path / "j1"
        b = tmp_path / "j2"
        for out, jobs in ((a, 1), (b, 2)):
            assert run("train", "--data", dataset, "--out", out,
                       "--regime", "supervised-gt", "--members", 2,
                       "--seed", 5, "--steps", 25, "--grid", 6,
                       "--jobs", jobs) == 0
        for name in ("member_5.json", "member_6.json", "loss_5.csv", "loss_6.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
