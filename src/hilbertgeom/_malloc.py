"""Fixed glibc malloc thresholds, so that a call's page faults do not depend
on what earlier calls freed.

The solvers allocate and free numpy temporaries of 0.1 to a few MB on every
call (the ray arrays of ``unit_ball_areas`` chunks).  glibc serves a block above its mmap threshold with a fresh mapping
and returns a free heap top above its trim threshold to the kernel; both
thresholds start at 128 KiB and rise only when a large mapped block happens
to be freed.  So whether a call reuses the pages of the last one or faults
them in again depends on what earlier calls happened to free: one
``ball_area`` of the disk faulted from 0 to about 21 000 fresh pages
(80 MB), depending on the calls before it and, after the same calls, on
the process.

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
