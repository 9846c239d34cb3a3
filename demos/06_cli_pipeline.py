#!/usr/bin/env python3
"""The whole workflow through the command line, end to end.

synth -> train -> fuse -> eval -> calib, all driven by one seed. Every
command leaves a manifest.json that reproduces its outputs bit for bit
(pass it back via --config).
"""

import csv
import subprocess
import sys
from pathlib import Path

root = Path("demo_out/cli")
root.mkdir(parents=True, exist_ok=True)


def run(*args):
    cmd = [sys.executable, "-m", "scopedepth.cli", *map(str, args)]
    print("$", " ".join(cmd[2:]))
    subprocess.run(cmd, check=True)


run("synth", "--out", root / "ds", "--seed", 21, "--frames", 12,
    "--width", 48, "--height", 48, "--sway-mm", 2.0)
run("train", "--data", root / "ds", "--out", root / "run",
    "--regime", "supervised-gt", "--members", 3, "--seed", 1,
    "--steps", 400, "--grid", 12)
run("fuse", "--run", root / "run", "--out", root / "fused")
run("eval", "--pred", root / "fused", "--data", root / "ds",
    "--out", root / "metrics.csv")
run("calib", "--pred", root / "fused", "--data", root / "ds",
    "--out", root / "curve.csv", "--levels", 19)

with open(root / "metrics.csv") as f:
    rows = list(csv.reader(f))
print()
print("metrics row:")
for k, v in zip(rows[0], rows[1]):
    print(f"  {k:12s} {float(v):.4f}")
