"""Hand the heap a build freed back to the operating system.

A plan build or a compaction allocates its transient arrays and tuples on
whichever executor thread ran it, and glibc keeps freed memory in that
thread's malloc arena as high-water: with a few executor threads taking turns
the process keeps several builds' worth of free heap resident.  glibc's
``malloc_trim(0)`` returns the free pages of every arena (top and interior)
to the OS.  It costs about a millisecond after a build, so callers run it
once per build, compaction or rebuild — never per request.  On other C
libraries it is absent and :func:`release_heap` does nothing.
"""

from __future__ import annotations

import ctypes


def _malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc / no dlopen(NULL)
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def release_heap() -> None:
    """Return free heap pages to the OS (a no-op where that is unsupported)."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
