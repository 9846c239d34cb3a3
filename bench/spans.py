"""Per-module spans for the traced benchmark run.

The tracer replaces every function and method defined in the scopedepth
modules with a wrapper that times the call, and rebinds each name in every
module that imported it, so cross-module calls go through the wrappers
too.  Spans are aggregated in memory as they close: per (stage, function)
the call count, inclusive time, self time (the span minus the part of it
covered by child spans), layer time (the span minus the part of it spent
in other modules), and a few exact work counters computed from the call's
arguments or result.

Pool workers forked by ``train --jobs N`` inherit the wrappers.  Each
worker starts with empty aggregates, writes them to the spool directory
when it exits, and :meth:`Tracer.collect` merges those files into the
driver's own aggregates.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
import types
from pathlib import Path

MODULES = (
    "rng", "imagery", "geometry", "photometry", "losses", "predictor",
    "ensemble", "trainer", "metrics", "synthcolon", "cli",
)


def _points(args, kwargs, result, dur):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return {"points": getattr(pts, "size", 3) // 3}


def _pixels(args, kwargs, result, dur):
    w = args[3] if len(args) > 3 else kwargs["w"]
    h = args[4] if len(args) > 4 else kwargs["h"]
    return {"pixels": w * h}


def _file_bytes(args, kwargs, result, dur):
    return {"bytes": os.path.getsize(args[-1] if args else kwargs["path"])}


def _upsample_bytes(args, kwargs, result, dur):
    return {"bytes": result.nbytes}


def _adjoint_bytes(args, kwargs, result, dur):
    grad = args[0] if args else kwargs["grad"]
    return {"bytes": grad.nbytes}


def _ensemble_wall(args, kwargs, result, dur):
    members = args[3] if len(args) > 3 else kwargs["members"]
    jobs = args[5] if len(args) > 5 else kwargs.get("jobs", 1)
    workers = min(jobs, members) if jobs > 1 and members > 1 else 1
    return {
        "member_wall_s": sum(report.wall_clock for _, report in result),
        "worker_wall_s": workers * dur,
    }


# fields of an aggregate record
CALLS, INCL, SELF, LAYER, COUNTS = range(5)

# exact work counters, computed from a call's arguments or result
COUNTERS = {
    "synthcolon.surface_field": _points,
    "synthcolon.render_view": _pixels,
    "imagery.read_pfm": _file_bytes,
    "imagery.read_ppm": _file_bytes,
    "imagery.write_pfm": _file_bytes,
    "imagery.write_ppm": _file_bytes,
    "predictor.upsample_bilinear": _upsample_bytes,
    "predictor.upsample_bilinear_adjoint": _adjoint_bytes,
    "trainer.train_ensemble": _ensemble_wall,
}


class Tracer:
    """Wraps the package's functions while installed; see the module doc."""

    def __init__(self, package, spool_dir: Path):
        self.package = package
        self.spool_dir = Path(spool_dir)
        self.stage = "-"
        self.installed = False
        self._saved: list[tuple[object, str, object]] = []
        self._reset()
        # runs in each multiprocessing child after the parent's finalizers
        # are cleared, so the child's own Finalize survives
        multiprocessing.util.register_after_fork(self, Tracer._after_fork_in_child)

    def _reset(self) -> None:
        # open spans: [start, time in child spans, time in other modules, module]
        self._stack: list[list] = []
        # (stage, name) -> [calls, inclusive_s, self_s, layer_s, {counter: value}],
        # indexed by CALLS, INCL, SELF, LAYER, COUNTS
        self._agg: dict[tuple[str, str], list] = {}

    def _after_fork_in_child(self) -> None:
        if not self.installed:
            return
        self._reset()
        multiprocessing.util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self) -> None:
        rows = [[stage, name, *rec] for (stage, name), rec in self._agg.items()]
        path = self.spool_dir / f"spans_{os.getpid()}.json"
        with open(path, "w") as f:
            json.dump(rows, f)

    def _wrap(self, name: str, fn):
        """Self time is the span minus its child spans; layer time is the
        span minus the time spent in other modules, so it keeps the work of
        the function's own-module helpers."""
        counter = COUNTERS.get(name)
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack  # replaced after a fork, so look it up per call
            frame = [time.perf_counter(), 0.0, 0.0, module]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent[2] += dur if parent[3] != module else frame[2]
                rec = self._agg.get((self.stage, name))
                if rec is None:
                    rec = self._agg[(self.stage, name)] = [0, 0.0, 0.0, 0.0, {}]
                rec[CALLS] += 1
                rec[INCL] += dur
                rec[SELF] += dur - frame[1]
                rec[LAYER] += dur - frame[2]
            if counter is not None:
                counts = rec[COUNTS]
                for k, v in counter(args, kwargs, result, dur).items():
                    counts[k] = counts.get(k, 0) + v
            return result

        return traced

    def install(self) -> None:
        """Wrap every function and method defined in the traced modules and
        rebind each name wherever a traced module imported it."""
        mods = [getattr(self.package, m) for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        self.installed = True

    def _install_methods(self, short: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                new = self._wrap(name, obj)
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(name, obj.__func__))
            else:
                continue
            self._saved.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()
        self.installed = False

    def collect(self) -> dict[tuple[str, str], list]:
        """Merge the spooled worker aggregates into this process's, return
        the result and start a fresh aggregation."""
        merged = self._agg
        for path in sorted(self.spool_dir.glob("spans_*.json")):
            with open(path) as f:
                rows = json.load(f)
            path.unlink()
            for stage, name, *times, counts in rows:
                rec = merged.setdefault((stage, name), [0, 0.0, 0.0, 0.0, {}])
                for i, v in enumerate(times):
                    rec[i] += v
                for k, v in counts.items():
                    rec[COUNTS][k] = rec[COUNTS].get(k, 0) + v
        self._reset()
        return merged
