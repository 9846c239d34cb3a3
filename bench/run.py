#!/usr/bin/env python3
"""Benchmark of the scopedepth command-line pipeline.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --smoke

A run is one closed-loop client in one fresh process.  It repeats the
workload's stages (synth, train, fuse, eval, calib) back to back, each
called through ``scopedepth.cli.main`` as a user runs it, until
``--seconds`` are spent, checks every repeat's outputs, and reports medians
over the repeats of each stage's wall time rescaled to the host's
reference speed (bench/pace.py).  The first repeat trains with a fixed
reference seed; it is untimed and gives the accuracy metrics.  While a
repeat is timed no process runs besides the program's own ``--jobs``
workers.  ``--trace 1`` alternates untraced and traced repeats and reports
per-module metrics.  ``--smoke`` runs every workload at toy size, in both
modes, as the benchmark's self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  bench/README.md
describes the workloads, the metrics and the seeds.
"""

import os

# One BLAS/OpenMP thread in this process, its pool workers and its set-up
# probes.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pace
from spans import CALLS, COUNTS, INCL, LAYER, SELF, Tracer
from workloads import REFERENCE_SEED, SCENE_SEED, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
SETUP_PROBES = {"full": 5, "toy": 1}

PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import scopedepth.cli; "
         "print('ready', flush=True)")


@dataclass
class Book:
    """Operations attempted and failed: stages run and output checks made."""

    attempted: int = 0
    failed: int = 0
    kinds: set = field(default_factory=set)

    def check(self, kind: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.kinds.add(kind)
        if not ok:
            self.failed += 1
            print(f"check failed: {kind} {detail}".rstrip(), file=sys.stderr)
        return ok


@dataclass
class Repeat:
    stage_s: dict  # CLI command -> rescaled seconds, summed over its stages
    pipeline_s: float  # rescaled
    wall_s: float  # the same stages' wall time as measured
    digest: dict
    scores: dict  # the eval CSV row
    rss_mb: float  # this process's peak resident set when the repeat ended
    trace: dict | None = None


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until scopedepth is
    imported and ready, rescaled like a stage."""
    cpus, kernel_before = pace.pin(pool=False)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return pace.rescale(elapsed, kernel_before, pace.kernel_s(cpus))


def own_peak_mb() -> float:
    """Peak resident set so far of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class WorkerPeaks:
    """Peak resident set of every ``--jobs`` pool worker: each forked worker
    writes its own peak to the spool directory when it exits."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.spool_dir.mkdir()
        multiprocessing.util.register_after_fork(self, WorkerPeaks._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        multiprocessing.util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self) -> None:
        (self.spool_dir / f"rss_{os.getpid()}").write_text(str(own_peak_mb()))

    def mb(self) -> list[float]:
        return [float(path.read_text()) for path in self.spool_dir.glob("rss_*")]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def uses_pool(argv: list[str]) -> bool:
    return "--jobs" in argv and int(_flag(argv, "--jobs")) > 1


def run_repeat(cli, stages: list[list[str]], rep_dir: Path, book: Book,
               tracer: Tracer | None) -> Repeat | None:
    """Run the stages once; None if a stage failed."""
    stage_s: dict[str, float] = {}
    wall_s = 0.0
    for argv in stages:
        command = argv[0]
        cpus, kernel_before = pace.pin(uses_pool(argv))
        if tracer is not None:
            tracer.stage = command
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed stage, not a crashed benchmark
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.stage = "-"
        scaled = pace.rescale(wall, kernel_before, pace.kernel_s(cpus))
        stage_s[command] = stage_s.get(command, 0.0) + scaled
        wall_s += wall
        if not book.check("stage-exit", rc == 0, f"{' '.join(argv)} -> {rc}"):
            return None
    outputs: list[Path] = []
    scores: dict = {}
    for argv in stages:
        out = Path(_flag(argv, "--out"))
        if argv[0] == "train":
            outputs += sorted(out.glob("member_*.json"))
        elif argv[0] == "fuse":
            outputs += [out / name for name in checks.FUSED_MAPS]
            book.check("variance-identity", checks.variance_identity(out), str(out))
        elif argv[0] in ("eval", "calib"):
            book.check("finite-metrics", checks.all_finite(checks.csv_numbers(out)),
                       str(out))
            if argv[0] == "eval":
                with open(out, newline="") as f:
                    scores = {k: float(v) for k, v in next(csv.DictReader(f)).items()}
    trace = None
    if tracer is not None:
        trace = tracer.collect()
        members = sum(int(_flag(a, "--members")) for a in stages if a[0] == "train")
        spans = sum(rec[CALLS] for (_, name), rec in trace.items()
                    if name == "trainer.train_member")
        book.check("worker-spans", spans == members,
                   f"{spans} train_member spans for {members} members")
    return Repeat(stage_s, sum(stage_s.values()), wall_s,
                  checks.digest(outputs, rep_dir), scores, own_peak_mb(), trace)


def run_phase(cli, workload: Workload, seed: int, profile: str, work: Path,
              budget_s: float, book: Book, tracer: Tracer | None,
              untraced: list[Repeat], traced: list[Repeat]) -> None:
    """Run repeats, at least two, until the next one would likely overrun
    ``budget_s``.  With a tracer, untraced and traced repeats alternate, so
    both see the same machine, and each kind runs at least twice."""
    t0 = time.perf_counter()
    durations: list[float] = []
    while True:
        tracing = tracer is not None and len(durations) % 2 == 1
        rep_dir = work / f"rep{len(durations)}"
        stages = workload.stages(seed, rep_dir, profile)
        t_rep = time.perf_counter()
        if tracing:
            tracer.install()
        try:
            rep = run_repeat(cli, stages, rep_dir, book, tracer if tracing else None)
        finally:
            if tracing:
                tracer.uninstall()
        durations.append(time.perf_counter() - t_rep)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if rep is None:
            return
        if untraced:
            book.check("bit-identical", rep.digest == untraced[0].digest,
                       f"repeat {len(durations) - 1} differs from repeat 0")
        (traced if tracing else untraced).append(rep)
        enough = len(untraced) >= 2 and (tracer is None or len(traced) >= 2)
        elapsed = time.perf_counter() - t0
        if enough and elapsed + statistics.median(durations) > budget_s:
            return


def end_to_end(setup: list[float], reps: list[Repeat], reference: Repeat,
               worker_mb: list[float]) -> dict:
    """name -> (value, unit, samples): timings are medians over the
    repeats of rescaled seconds (see pace.py)."""
    n = len(reps)

    def med(values):
        return statistics.median(values), "s", n

    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "pipeline_s": med([r.pipeline_s for r in reps]),
        "synth_s": med([r.stage_s["synth"] for r in reps]),
        "train_s": med([r.stage_s["train"] for r in reps]),
        # this process at a fixed point, as its high-water mark creeps up
        # over repeats, plus a typical worker: a worker's peak now and then
        # jumps by a tenth with the pool's scheduling
        "peak_rss_mb": (reps[1].rss_mb + (statistics.median(worker_mb) if worker_mb
                                          else 0.0), "MB", 1 + len(worker_mb)),
        "abs_rel": (reference.scores["abs_rel"], "ratio", 1),
        "auce_abs": (reference.scores["auce_abs"], "ratio", 1),
    }


IO_FUNCS = ("imagery.read_pfm", "imagery.write_pfm", "imagery.read_ppm",
            "imagery.write_ppm")
UPSAMPLE = "predictor.upsample_bilinear"
ADJOINT = "predictor.upsample_bilinear_adjoint"
WARPS = ("geometry.warp_coordinates", "geometry.warp_coordinates_with_jacobian")
BOX = ("photometry.box_filter", "photometry.box_filter_adjoint")


def layers(agg: dict) -> dict:
    """Per-layer metrics of one traced repeat: name -> (value, unit, exact)."""

    def recs(names, stage=None):
        return [rec for (st, name), rec in agg.items()
                if name in names and stage in (None, st)]

    def calls(*names, stage=None):
        return sum(r[CALLS] for r in recs(names, stage))

    def incl(*names):
        return sum(r[INCL] for r in recs(names))

    def self_s(*names):
        return sum(r[SELF] for r in recs(names))

    def layer_s(*names):
        return sum(r[LAYER] for r in recs(names))

    def count(key, *names):
        return sum(r[COUNTS].get(key, 0) for r in recs(names))

    def module(mod, field, exclude=()):
        return sum(rec[field] for (_, name), rec in agg.items()
                   if name.split(".", 1)[0] == mod and name not in exclude)

    render = "synthcolon.render_view"
    steps = calls("trainer._objective", stage="train")
    ensemble_s = incl("trainer.train_ensemble")
    return {
        "synthcolon.render_view.calls": (calls(render), "count", True),
        "synthcolon.render_view.self_s": (layer_s(render), "s", False),
        "synthcolon.rays": (count("points", "synthcolon.surface_field"), "count", True),
        "synthcolon.px_per_s": (count("pixels", render) / incl(render), "px/s", False),
        "rng.self_s": (module("rng", SELF), "s", False),
        "imagery.io.calls": (calls(*IO_FUNCS), "count", True),
        "imagery.io.self_s": (layer_s(*IO_FUNCS), "s", False),
        "imagery.io.bytes": (count("bytes", *IO_FUNCS), "bytes", True),
        "predictor.upsample.self_s": (layer_s(UPSAMPLE), "s", False),
        "predictor.adjoint.self_s": (layer_s(ADJOINT), "s", False),
        "predictor.upsample.bytes": (count("bytes", UPSAMPLE, ADJOINT), "bytes", True),
        "predictor.forward.per_step": (
            calls("predictor.forward_arrays", stage="train") / steps, "count", True),
        "geometry.warp.calls": (calls(*WARPS), "count", True),
        "geometry.warp.self_s": (layer_s(*WARPS), "s", False),
        "photometry.self_s": (module("photometry", SELF), "s", False),
        "photometry.box_filter.calls": (calls(*BOX), "count", True),
        "photometry.box_filter.per_step": (calls(*BOX, stage="train") / steps,
                                           "count", True),
        "photometry.ssim_backward.self_s": (
            layer_s("photometry.ssim_backward_channel"), "s", False),
        "photometry.smoothness.self_s": (
            layer_s("photometry.edge_aware_smoothness",
                   "photometry.edge_aware_smoothness_grad"), "s", False),
        # the pool's waiting shows in train_ensemble, reported apart
        "trainer.self_s": (module("trainer", SELF, ("trainer.train_ensemble",)),
                           "s", False),
        "losses.calls": (module("losses", CALLS), "count", True),
        "losses.self_s": (module("losses", SELF), "s", False),
        "trainer.step_ms": (1000.0 * incl("trainer.train_member") / steps, "ms", False),
        "trainer.steps_per_s": (steps / ensemble_s, "1/s", False),
        "trainer.pool.wait_s": (self_s("trainer.train_ensemble"), "s", False),
        "trainer.pool.efficiency": (
            count("member_wall_s", "trainer.train_ensemble")
            / count("worker_wall_s", "trainer.train_ensemble"), "ratio", False),
        "ensemble.self_s": (module("ensemble", SELF), "s", False),
        "metrics.self_s": (module("metrics", SELF), "s", False),
        "cli.self_s": (module("cli", SELF), "s", False),
    }


def per_layer(untraced: list[Repeat], traced: list[Repeat], book: Book) -> dict:
    """name -> (value, unit, samples): medians of timings over the traced
    repeats; exact counts, which must agree across them."""
    rows = [layers(r.trace) for r in traced]
    out = {}
    for name, (value, unit, exact) in rows[0].items():
        values = [row[name][0] for row in rows]
        if exact:
            book.check("exact-count", len(set(values)) == 1, f"{name}: {values}")
            out[name] = (value, unit, len(values))
        else:
            out[name] = (statistics.median(values), unit, len(values))
    overhead = (statistics.median(r.pipeline_s for r in traced)
                / statistics.median(r.pipeline_s for r in untraced) - 1.0)
    out["bench.trace_overhead_frac"] = (overhead, "ratio", len(traced))
    return out


def environment(workload: Workload, seed: int, profile: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "scene_seed": SCENE_SEED,
        "input_size": workload.sizes[profile],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "start_method": multiprocessing.get_start_method(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        profile: str, out) -> dict:
    """One benchmark run; prints a report to ``out`` and returns the result
    object (all computed metrics, failed_frac included)."""
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("# env " + json.dumps(environment(workload, seed, profile)), file=out)
        setup = [] if trace else [setup_probe() for _ in range(SETUP_PROBES[profile])]
        import scopedepth
        import scopedepth.cli as cli

        book = Book()
        untraced: list[Repeat] = []
        traced: list[Repeat] = []
        workers = WorkerPeaks(work / "rss")
        tracer = Tracer(scopedepth, work / "spool") if trace else None
        if tracer is not None:
            tracer.spool_dir.mkdir()
        t0 = time.perf_counter()
        # warms the process up; untimed; its scores are the accuracy metrics
        reference = run_repeat(cli, workload.stages(REFERENCE_SEED, work / "reference",
                                                    profile), work / "reference", book, None)
        shutil.rmtree(work / "reference", ignore_errors=True)
        if reference is not None:
            run_phase(cli, workload, seed, profile, work,
                      seconds - (time.perf_counter() - t0), book, tracer,
                      untraced, traced)
        complete = reference is not None and len(untraced) >= 2 and (
            len(traced) >= 2 or not trace)
        metrics = {}
        if complete:
            metrics = (per_layer(untraced, traced, book) if trace else
                       end_to_end(setup, untraced, reference, workers.mb()))
            book.check("finite-metrics", checks.all_finite(v for v, _, _ in metrics.values()))
        if not trace:
            frac = book.failed / book.attempted
            metrics["failed_frac"] = (frac, "ratio", book.attempted)
        print(f"# {workload.name} seed {seed}: checks {sorted(book.kinds)}", file=out)
        for label, reps in (("untraced", untraced), ("traced", traced)):
            if reps:
                times = " ".join(f"{r.pipeline_s:.3f}" for r in reps)
                walls = " ".join(f"{r.wall_s:.3f}" for r in reps)
                print(f"# {label} pipeline_s per repeat: {times}", file=out)
                print(f"# {label} wall seconds per repeat: {walls}", file=out)
        for name, (value, unit, n) in metrics.items():
            print(f"{name:34s} {value:>16.6g} {unit:6s} n={n}", file=out)
        return {
            "correct": complete and book.failed == 0,
            "attempted": book.attempted,
            "failed": book.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()},
            "checks": sorted(book.kinds),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def result_line(result: dict, names: list[str]) -> str:
    metrics = {k: v for k, v in result["metrics"].items() if k in names}
    return json.dumps({"correct": result["correct"] and len(metrics) == len(names),
                       "attempted": result["attempted"], "failed": result["failed"],
                       "metrics": metrics})


def smoke() -> int:
    """Self-test: every workload at toy size, untraced and traced.  Checks
    that each metric of BENCHMARK.json is printed with its unit, that every
    kind of output check ran and passed, and that the checks catch a
    broken output."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    kinds: set = set()
    t0 = time.perf_counter()
    for workload in WORKLOADS.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            buf = io.StringIO()
            result = run(workload, DEFAULT_SEED, 0.0, trace, "toy", buf)
            report = buf.getvalue()
            kinds |= set(result["checks"])
            where = f"{workload.name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks")
            expected = bench[section] + ([{"name": "failed_frac", "unit": "ratio"}]
                                         if not trace else [])
            for m in expected:
                got = result["metrics"].get(m["name"])
                line = [ln for ln in report.splitlines() if ln.split()[:1] == [m["name"]]]
                if got is None or got["unit"] != m["unit"] or not line \
                        or line[0].split()[2] != m["unit"]:
                    problems.append(f"{where}: {m['name']} not printed in {m['unit']}")
            if json.loads(result_line(result, [m["name"] for m in bench[section]]))[
                    "correct"] is not True:
                problems.append(f"{where}: result line incomplete")
    want = {"stage-exit", "bit-identical", "variance-identity", "finite-metrics",
            "exact-count", "worker-spans"}
    if not want <= kinds:
        problems.append(f"checks that never ran: {sorted(want - kinds)}")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        if not _variance_check_catches_tampering(Path(tmp)):
            problems.append("variance-identity check missed a tampered var_total")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke {'FAILED' if problems else 'ok'}: {len(WORKLOADS)} workloads x 2 "
          f"modes in {time.perf_counter() - t0:.1f} s")
    return 1 if problems else 0


def _variance_check_catches_tampering(tmp: Path) -> bool:
    import numpy as np

    def write(name, arr):
        h, w = arr.shape
        with open(tmp / name, "wb") as f:
            f.write(f"Pf\n{w} {h}\n-1.0\n".encode() + arr.astype("<f4").tobytes())

    va = np.full((2, 2), 0.1, dtype=np.float32)
    ve = np.full((2, 2), 0.2, dtype=np.float32)
    write("var_aleatoric.pfm", va)
    write("var_epistemic.pfm", ve)
    write("var_total.pfm", va + ve)
    intact = checks.variance_identity(tmp)
    write("var_total.pfm", np.nextafter(va + ve, np.float32(1)))
    return intact and not checks.variance_identity(tmp)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, one fresh process per run, one
    after another; prints each run's report and a one-line verdict."""
    bad = []
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                bad.append(f"{name} --trace {trace}")
    print(f"all workloads: {'failed: ' + ', '.join(bad) if bad else 'correct'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or 'all': each workload untraced then "
                         "traced, each run in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"training seed (default {DEFAULT_SEED}; hold-out "
                         f"{HOLDOUT_SEED} for confirming a claim)")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-size self-test of every workload and metric")
    args = ap.parse_args(argv)
    if not (SRC / "scopedepth" / "cli.py").is_file():
        print(f"error: no scopedepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), "full", sys.stdout)
    print(result_line(result, [m["name"] for m in section]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
