"""glibc heap settings for the large numpy temporaries of rendering and
training.  They do nothing where the C library is not glibc."""

from __future__ import annotations

import functools
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _glibc():
    """The process's C library if it is glibc, else None."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return libc


@functools.cache
def keep_heap_mapped() -> None:
    """Stop glibc from returning the heap top to the kernel between
    sphere-trace iterations, shading blocks and training steps; runs once
    per process.

    A march's and a shading block's temporaries are 128-384 KiB arrays
    (16,384 rays), and a 256x256 training step's are 0.5-1.5 MB.  With
    glibc's defaults, freeing them trims the heap (or unmaps them) and the
    next iteration faults the pages back in: three 15-step members trained
    at 256x256 take 94k minor page faults (5.2k with this call), and a
    3-frame 256x256 ``write_dataset`` 15.3k (3.7k).  The mmap threshold is
    fixed at 32 MiB, the ceiling of glibc's own dynamic threshold, and the
    trim threshold at twice that, as glibc pairs them."""
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)

