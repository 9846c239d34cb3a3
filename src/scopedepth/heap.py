"""glibc heap settings for the large numpy temporaries of rendering and
training.  Both functions do nothing where the C library is not glibc."""

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
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return libc


@functools.cache
def keep_heap_mapped() -> None:
    """Stop glibc from returning the heap top to the kernel between
    training steps; runs once per process.

    At 256x256 a step's temporaries are 512 KB arrays.  With glibc's
    defaults, freeing them trims the heap and the next step faults the
    pages back in, so three 15-step members trained in a fresh process
    take 90k minor page faults.  The mmap threshold is fixed at 32 MiB,
    the ceiling of glibc's own dynamic threshold, and the trim threshold
    at twice that, as glibc pairs them."""
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def release_free_heap() -> None:
    """Return the free pages inside the heap to the kernel.

    glibc gives back only the top of the heap by itself.  After a render,
    the freed working set lies below small blocks that are still live, so
    it stays resident, and every process forked later (``train --jobs``)
    starts with it."""
    libc = _glibc()
    if libc is not None:
        libc.malloc_trim(0)
