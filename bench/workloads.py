"""The benchmark's workloads: each is a list of ``scopedepth`` CLI stages.

Every workload renders scene seed 21 of the README quick start; the
workload seed sets the training seed (member initialisations and, for the
SfM teacher, the label noise).  The ray-march work hardly depends on the
scene, but the accuracy metrics do, and on the training seed too, by more
than any regression bound allows (bench/README.md gives the figures), so
the run scores one repeat trained with ``REFERENCE_SEED``.

Sizes come in two profiles: ``full`` for measurement and ``toy`` for the
smoke self-test, which runs every stage and check in a few seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCENE_SEED = 21
# training seed of the first, untimed repeat of every run, which is scored
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    # stated input size per profile, recorded with the results
    sizes: dict[str, str]
    stages: Callable[[int, Path, str], list[list[str]]]


def _synth_64(out: Path, toy: bool) -> list[str]:
    res = "16" if toy else "64"
    return ["synth", "--out", str(out), "--seed", str(SCENE_SEED),
            "--frames", "3" if toy else "12", "--width", res, "--height", res,
            "--sway-mm", "2.5"]


def _score(pred: Path, data: Path, rep: Path, extra: list[str]) -> list[list[str]]:
    return [
        ["eval", "--pred", str(pred), "--data", str(data),
         "--out", str(rep / "eval" / "metrics.csv"), *extra],
        ["calib", "--pred", str(pred), "--data", str(data),
         "--out", str(rep / "calib" / "curve.csv"), *extra],
    ]


def _sup_ensemble(seed: int, rep: Path, profile: str) -> list[list[str]]:
    toy = profile == "toy"
    return [
        _synth_64(rep / "ds", toy),
        ["train", "--data", str(rep / "ds"), "--out", str(rep / "run"),
         "--regime", "supervised-gt", "--members", "2" if toy else "5",
         "--seed", str(seed), "--steps", "3" if toy else "200",
         "--grid", "4" if toy else "16", "--jobs", "2"],
        ["fuse", "--run", str(rep / "run"), "--out", str(rep / "fused")],
        *_score(rep / "fused", rep / "ds", rep, []),
    ]


def _selfsup(seed: int, rep: Path, profile: str) -> list[list[str]]:
    toy = profile == "toy"
    return [
        _synth_64(rep / "ds", toy),
        ["train", "--data", str(rep / "ds"), "--out", str(rep / "run"),
         "--regime", "self-supervised", "--members", "2",
         "--seed", str(seed), "--steps", "3" if toy else "50",
         "--grid", "4" if toy else "16", "--jobs", "1"],
        ["fuse", "--run", str(rep / "run"), "--out", str(rep / "fused")],
        *_score(rep / "fused", rep / "ds", rep, []),
    ]


def _distill(seed: int, rep: Path, profile: str) -> list[list[str]]:
    toy = profile == "toy"
    res = 32 if toy else 256
    steps = "3" if toy else "15"
    grid = "4" if toy else "16"
    # the default intrinsics suit 64x64; keep the field of view at 256x256
    rep.mkdir(parents=True, exist_ok=True)
    config = rep / "synth_config.json"
    with open(config, "w") as f:
        json.dump({"fx": 0.75 * res, "fy": 0.75 * res,
                   "cx": (res - 1) / 2, "cy": (res - 1) / 2}, f)
    return [
        ["synth", "--config", str(config), "--out", str(rep / "ds"),
         "--seed", str(SCENE_SEED), "--frames", "3", "--width", str(res),
         "--height", str(res), "--specular", "--sway-mm", "2.5"],
        ["train", "--data", str(rep / "ds"), "--out", str(rep / "teacher"),
         "--regime", "supervised-sfm", "--members", "3", "--seed", str(seed),
         "--steps", steps, "--grid", grid, "--jobs", "2"],
        ["fuse", "--run", str(rep / "teacher"), "--out", str(rep / "teacher_fused")],
        ["train", "--data", str(rep / "ds"), "--out", str(rep / "student"),
         "--regime", "uncertain-student", "--teacher", str(rep / "teacher_fused"),
         "--members", "2", "--seed", str(seed + 1000), "--steps", steps,
         "--grid", grid, "--jobs", "2"],
        ["fuse", "--run", str(rep / "student"), "--out", str(rep / "fused")],
        *_score(rep / "fused", rep / "ds", rep, ["--median-scale"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sup-ensemble-64",
            {"full": "64x64, 12 frames; 5 members x 200 steps, grid 16, --jobs 2",
             "toy": "16x16, 3 frames; 2 members x 3 steps, grid 4, --jobs 2"},
            _sup_ensemble,
        ),
        Workload(
            "selfsup-64",
            {"full": "64x64, 12 frames; 2 members x 50 steps, sources +-1, "
                     "grid 16, --jobs 1",
             "toy": "16x16, 3 frames; 2 members x 3 steps, grid 4, --jobs 1"},
            _selfsup,
        ),
        Workload(
            "distill-256",
            {"full": "256x256, 3 frames, specular; teacher 3 members, student "
                     "2 members, 15 steps each, grid 16, --jobs 2",
             "toy": "32x32, 3 frames, specular; teacher 3 members, student "
                    "2 members, 3 steps each, grid 4, --jobs 2"},
            _distill,
        ),
    )
}
