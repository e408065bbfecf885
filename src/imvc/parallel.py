"""How many threads the fit can use: usable CPUs and BLAS threads.

The k-means restarts and the per-view autoencoders run on thread pools.
A k-means worker computes in numpy's own loops, so one worker per usable
CPU fills the machine. An autoencoder worker spends its time in matmul,
which numpy hands to OpenBLAS, and OpenBLAS may itself run each call on
several threads; the view pool therefore divides the CPUs by the BLAS
thread count, which only OpenBLAS can report.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy as np

# The thread-count getter under the names numpy's wheels export it by:
# from numpy 2.0 they bundle scipy-openblas, whose symbols carry a prefix
# and, for 64-bit integers, a suffix; older wheels bundle plain OpenBLAS.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def blas_threads() -> int | None:
    """Threads numpy's matmul runs on, or None when that cannot be read.

    Reads the OpenBLAS that numpy's wheel bundles in `numpy.libs`, the
    library its matmul calls. Only an already loaded copy is opened, so
    another OpenBLAS mapped into the process (scipy bundles its own) is
    never the one read. numpy built against another BLAS, or a platform
    without `RTLD_NOLOAD`, gives None.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload)
        except OSError:             # present on disk but not loaded
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                return threads if threads >= 1 else None
    return None
