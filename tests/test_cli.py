import argparse
import csv
import filecmp
import json
import os
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
from scopedepth.imagery import read_pfm


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


def _modules_loaded_by_cli_import(prefixes):
    """Names of the modules starting with one of ``prefixes`` that a fresh
    interpreter holds after importing the CLI."""
    code = ("import sys, scopedepth, scopedepth.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    src = str(Path(scopedepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs the CLI startup
    # time and memory on every run
    assert _modules_loaded_by_cli_import(["scipy"]) == "[]"


def test_import_loads_no_process_pool():
    # only train --jobs N > 1 uses the pool; every other command would pay
    # for importing multiprocessing at start-up
    assert _modules_loaded_by_cli_import(["concurrent", "multiprocessing"]) == "[]"


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


class TestFlagWiring:
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


class TestSynth:
    def test_layout_and_manifest(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert "manifest.json" in names and "intrinsics.json" in names
        assert "frame_0004.ppm" in names and "depth_0000.pfm" in names
        with open(dataset / "manifest.json") as f:
            m = json.load(f)
        assert m["command"] == "synth" and m["config"]["seed"] == 7

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
                 ("train", "teacher", 3), ("train", "source_offsets", [0.5, 1]))
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

    def test_zero_grid_usage_error(self, dataset, tmp_path, capsys):
        rc = run("train", "--data", dataset, "--out", tmp_path / "x",
                 "--members", 1, "--steps", 5, "--grid", 0)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grid" in err

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
        for cx in (float("nan"), "31.5"):
            (ds / "intrinsics.json").write_text(json.dumps({**K, "cx": cx}))
            out = tmp_path / "run"
            assert run("train", "--data", ds, "--out", out, "--regime", "self-supervised",
                       "--members", 1, "--steps", 2, "--grid", 2) == 2, cx
            err = capsys.readouterr().err
            assert err.startswith("error:") and "intrinsics cx must be finite" in err
            assert not out.exists()

    def test_nonpositive_jobs_usage_error(self, dataset, tmp_path, capsys):
        for jobs in (0, -1):
            out = tmp_path / f"jobs{jobs}"
            assert run("train", "--data", dataset, "--out", out, "--members", 2,
                       "--steps", 2, "--grid", 4, "--jobs", jobs) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"--jobs must be >= 1, got {jobs}" in err
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
        # the update overflows to inf before any loss turns non-finite; with
        # --jobs 2 the failure crosses the process pool
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


class TestFuseEvalCalib:
    def test_fuse_outputs(self, fused):
        out = load_ensemble(fused)
        assert out.members == 2 and out.seeds == (3, 4)
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
        from scopedepth.imagery import UncMap

        gt = read_pfm(dataset / "depth_0002.pfm")
        zero = np.zeros((gt.height, gt.width), dtype=np.float32)
        out = EnsembleOutput(gt, *(UncMap(zero, "variance"),) * 3, 1, (0,))
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
        from scopedepth.imagery import DepthMap, UncMap

        gt = read_pfm(dataset / "depth_0002.pfm")
        zero = np.zeros((gt.height, gt.width), dtype=np.float32)
        scaled = EnsembleOutput(DepthMap(gt.data * 0.25),
                                *(UncMap(zero, "variance"),) * 3, 1, (0,))
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

    def test_dimension_mismatch_exit_code(self, fused, tmp_path):
        other = tmp_path / "other_ds"
        assert run("synth", "--out", other, "--seed", 1, "--frames", 3,
                   "--width", 16, "--height", 16) == 0
        rc = run("eval", "--pred", fused, "--data", other, "--out", tmp_path / "x.csv")
        assert rc == 2


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
