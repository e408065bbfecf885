"""One thread scheduler for the fit, and how many threads it may use.

`run` steps jobs written as generators on W worker threads, round-robin
from one FIFO queue: a worker takes the job at the head, advances it to
its next `yield`, and puts it back at the tail. A job is never stepped on
two threads at once, and each job runs in its own copy of the caller's
`contextvars` context, so numpy's error state (`np.errstate`) holds in
the workers as in the caller. The views' autoencoders yield once per
epoch, so three views keep two CPUs busy to the end; a k-means restart is
a job of one step (`once`), so the restarts balance across the workers
however unequal they are.

A k-means worker computes in numpy's own loops, so one worker per usable
CPU fills the machine. An autoencoder worker spends its time in matmul,
which numpy hands to OpenBLAS, and OpenBLAS may itself run each call on
several threads; the views therefore get the CPUs divided by the BLAS
thread count, which only OpenBLAS can report.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from collections import deque
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


def once(fn, *args):
    """A job of one step whose result is fn(*args)."""
    return fn(*args)
    yield       # never reached: it makes this function a generator


def run(jobs, workers: int) -> list:
    """Step every job to its end on `workers` threads; results in job order.

    A job is a generator; its result is the value it returns. Once every
    job has finished, the exception of the lowest job that raised one is
    raised here.
    """
    jobs = list(jobs)
    contexts = [contextvars.copy_context() for _ in jobs]
    results: list = [None] * len(jobs)
    errors: list = [None] * len(jobs)
    ready = deque(range(len(jobs)))
    live = len(jobs)
    turn = threading.Condition()

    def work():
        nonlocal live
        while True:
            with turn:
                while not ready and live:
                    turn.wait()
                if not ready:           # every job has finished
                    return
                i = ready.popleft()
            finished = True
            try:
                contexts[i].run(next, jobs[i])
                finished = False
            except StopIteration as stop:
                results[i] = stop.value
            except BaseException as exc:    # raised by run() after the join
                errors[i] = exc
            with turn:
                if finished:
                    live -= 1
                    if not live:
                        turn.notify_all()
                else:
                    ready.append(i)
                    turn.notify()

    threads = [threading.Thread(target=work, name=f"imvc-worker-{w}")
               for w in range(max(1, min(workers, len(jobs))))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results
