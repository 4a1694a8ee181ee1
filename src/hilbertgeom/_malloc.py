"""Fixed glibc malloc thresholds, so that a call's page faults do not depend
on what earlier calls freed.

The solvers allocate and free numpy temporaries of 0.1 to a few MB on every
call (the ray arrays of ``unit_ball_areas`` chunks).  glibc serves a block
above its mmap threshold with a fresh mapping and returns a free heap top
above its trim threshold to the kernel; both thresholds start at 128 KiB
and rise only when a large mapped block happens to be freed.  So whether a
call reuses the pages of the last one or faults them in again depends on
what earlier calls happened to free.  Without the pin, one
``ball_area(PBall(4), (0.1, 0.2), 3)`` faulted in 7 000 to 10 000 fresh
pages per call, and one ideal triangle on PBall(4) 900 to 2 900; with it,
at most about 1 000 and 10 (x86-64, glibc 2.36, numpy 2.4.6).  A disk
ball, whose unit balls are closed form, faults in about none either way.
On the same host the benchmark's ``ideal-area`` workload ran about 10%
fewer operations per second without the pin.

Pinned at the ceilings glibc's own rule climbs to on 64-bit hosts (32 MiB
for mmap, twice that for trimming), blocks below 32 MiB stay on the heap
and a call reuses the pages the previous one freed.  Elsewhere than glibc
this does nothing.
"""

from __future__ import annotations

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def pin_malloc_thresholds() -> bool:
    """Set both thresholds; True if glibc accepted them."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
