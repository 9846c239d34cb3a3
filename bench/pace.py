"""The host's current speed, from a fixed calibration kernel.

The shared host this benchmark runs on changes speed in phases that last
from a fraction of a second to minutes, by up to a factor of two, and each
CPU changes on its own.  The slowdown is not time stolen from the process
(process CPU time slows just as much), so a run that falls into a slow
phase reads slow throughout, and neither the median nor the minimum over a
run's repeats steadies the timings between runs.

A small fixed kernel of numpy array work and Python bytecode, the mix the
pipeline spends its time on, measures a CPU's current speed.  The
benchmark pins each stage it times to known CPUs (``pin``), runs the
kernel on them just before and just after the stage, outside the timed
region, and rescales the stage's wall time by ``REFERENCE_KERNEL_S`` over
the mean of the two readings: the result reads in seconds at the host's
reference speed.  The kernel is part of the benchmark, not of the program,
so a change to the program moves the stage times and leaves the kernel
alone.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib

import numpy as np

# about the kernel's time on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy
# 2.4.6) in a fast phase; a fixed constant, so rescaled times compare
# between runs and between commits
REFERENCE_KERNEL_S = 0.0056
TRIES = 2
CPUS = tuple(sorted(os.sched_getaffinity(0)))

_A = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
_S = np.linspace(0.0, 1.0, 16 * 16).reshape(16, 16)
_DOC = {"rows": [{"i": i, "xy": [i * 0.5, str(i)], "k": {"m": i % 7}}
                 for i in range(60)]}
_KEYS = [(i * 7919) % 1000 for i in range(800)]
_PATTERN = re.compile(r"(\d+)-(\w+)")


def _kernel() -> float:
    """Array arithmetic, many small numpy calls, and interpreter work over
    a wide spread of code.  A slow phase hits tight loops and code-heavy
    work by different amounts; the mix tracks the pipeline better than any
    one part."""
    acc = 0.0
    for _ in range(50):
        b = np.sqrt(_A * _A + 1.0)
        b = b[:, ::-1] + b.T
        acc += float(b.mean())
    for _ in range(3):
        for _ in range(25):
            a = np.clip(np.exp(-_S), 0.2, 0.8)
            a = np.where(a > 0.5, a, -a)
            acc += float(np.einsum("ij,ij->", np.cumsum(a, axis=1), _S))
        acc += len(json.loads(json.dumps(_DOC))["rows"])
        acc += sorted(_KEYS)[0] + len(sorted(map(str, _KEYS[:200])))
        acc += sum(1 for i in range(150) if _PATTERN.match(f"{i}-{i:x}"))
        acc += zlib.crc32(bytes(range(256)) * 20)
    n = 0
    for i in range(15000):
        n += i * i
    return acc + n


def _kernel_on(cpu: int) -> float:
    """The kernel's time on ``cpu``: the fastest of a few back-to-back
    tries, which drops an interrupt but not a slow phase."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(TRIES):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def pin(pool: bool) -> tuple[tuple[int, ...], float]:
    """Pins this process for the next timed stage; returns its CPUs and
    the kernel time on them.  A stage with a process pool gets every CPU
    (forked workers inherit the set).  Any other stage gets the CPU that
    is fastest now, which keeps it out of one CPU's slow phase."""
    times = {cpu: _kernel_on(cpu) for cpu in CPUS}
    if pool:
        cpus, kernel = CPUS, sum(times.values()) / len(times)
    else:
        cpu = min(times, key=times.get)
        cpus, kernel = (cpu,), times[cpu]
    os.sched_setaffinity(0, set(cpus))
    return cpus, kernel


def kernel_s(cpus: tuple[int, ...]) -> float:
    """Mean kernel time over ``cpus``; leaves this process on ``cpus``."""
    kernel = sum(_kernel_on(cpu) for cpu in cpus) / len(cpus)
    os.sched_setaffinity(0, set(cpus))
    return kernel


def rescale(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """``wall_s`` in seconds at the reference speed."""
    return wall_s * REFERENCE_KERNEL_S / (0.5 * (kernel_before + kernel_after))
