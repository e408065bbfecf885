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

`one_blas_thread` holds the OpenBLAS numpy bundles at one thread while
a fit runs, so each worker's matmul runs on that worker's thread alone
and its bits do not depend on the caller's BLAS thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import threading
from collections import deque
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _openblas():
    """The thread-count getter and setter of the OpenBLAS in `numpy.libs`,
    which numpy's matmul calls; None for numpy on another BLAS, or without
    `RTLD_NOLOAD`. Only a loaded copy is opened, never scipy's own."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload)
        except OSError:             # present on disk but not loaded
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_pin_lock = threading.Lock()        # one caller's count saved at a time
# True in a context inside `one_blas_thread` while OpenBLAS is at one thread
pinned = contextvars.ContextVar("imvc_blas_pinned", default=False)


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block, then
    restore the caller's count, on an exception as well.

    The count is process-wide, so overlapping blocks in other threads wait
    for this one to end; a block inside it changes nothing. Where no
    bundled OpenBLAS can be set, the block runs unpinned.
    """
    api = None if pinned.get() else _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _pin_lock:
        saved = get()
        set_(1)
        token = pinned.set(True)
        try:
            yield
        finally:
            pinned.reset(token)
            set_(saved)


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
