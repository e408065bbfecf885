"""The scheduler, CPU and BLAS thread counts, and the view workers' count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so each count is
probed in a fresh interpreter. Every probe runs OpenBLAS at one or two
threads.
"""

import contextvars
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import imvc
from imvc import kmeans as kmeans_mod
from imvc import parallel, pipeline

BUNDLED_OPENBLAS = bool(
    list((Path(np.__file__).resolve().parent.parent / "numpy.libs")
         .glob("*openblas*")))

# prints the probed BLAS thread count, then the view pool's size for three
# views at 1 to 5 usable CPUs
PROBE = """
import json
from imvc import parallel, pipeline
workers = {}
for cpus in range(1, 6):
    parallel.usable_cpus = lambda cpus=cpus: cpus
    workers[cpus] = pipeline._view_workers(3)
print(json.dumps([parallel.blas_threads(), workers]))
"""


def probe(blas_threads: int):
    src = str(Path(imvc.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    blas, workers = json.loads(done.stdout.splitlines()[-1])
    return blas, {int(cpus): w for cpus, w in workers.items()}


@pytest.mark.skipif(not BUNDLED_OPENBLAS, reason="numpy bundles no OpenBLAS")
class TestBlasProbe:
    def test_one_blas_thread_gives_a_worker_per_cpu(self):
        blas, workers = probe(1)
        assert blas == 1
        assert workers == {cpus: min(3, cpus) for cpus in range(1, 6)}

    @pytest.mark.skipif(parallel.usable_cpus() < 2,
                        reason="OpenBLAS caps its threads at the CPU count")
    def test_two_blas_threads_halve_the_workers(self):
        blas, workers = probe(2)
        assert blas == 2
        assert workers == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}


def test_unreadable_blas_count_gives_one_worker(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    assert parallel.blas_threads() is None
    assert pipeline._view_workers(3) == 1
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.setattr(parallel, "blas_threads", lambda: None)
    assert pipeline._view_workers(3) == 1


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.usable_cpus() == (os.cpu_count() or 1)


def test_kmeans_and_view_pools_share_the_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(parallel, "blas_threads", lambda: 1)
    assert kmeans_mod._worker_count(10) == 3
    assert pipeline._view_workers(5) == 3


def stepper(log, i, steps):
    """A job that logs (job, step, thread name) at each of its steps."""
    for step in range(steps):
        log.append((i, step, threading.current_thread().name))
        yield
    return i


def run_bounded(jobs, workers, timeout=120):
    """parallel.run, called in the caller's context from a thread that must
    finish within `timeout` seconds."""
    out = {}

    def target():
        try:
            out["results"] = parallel.run(jobs, workers)
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(target,))
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["results"]


class TestScheduler:
    def test_results_come_back_in_job_order(self):
        log = []
        jobs = [stepper(log, i, 7 - i) for i in range(7)]
        assert run_bounded(jobs, 3) == list(range(7))
        assert len(log) == sum(range(1, 8))
        assert {name for _, _, name in log} <= {f"imvc-worker-{w}"
                                                for w in range(3)}

    def test_lowest_exception_raised_after_every_job_ends(self):
        finished = []

        def fails(i, steps):
            for _ in range(steps):
                yield
            raise ValueError(f"job {i}")

        def runs_on(i, steps):
            for _ in range(steps):
                yield
            finished.append(i)

        jobs = [runs_on(0, 30), fails(1, 2), fails(2, 0), runs_on(3, 50)]
        with pytest.raises(ValueError, match="job 1"):
            run_bounded(jobs, 2)
        assert sorted(finished) == [0, 3]

    def test_no_job_on_two_threads_under_fast_switching(self):
        workers = 2 * (os.cpu_count() or 1) + 3
        lock = threading.Lock()
        running, peak, overlaps = set(), [0], []

        def job(i):
            for _ in range(20):
                with lock:
                    if i in running:
                        overlaps.append(i)
                    running.add(i)
                    peak[0] = max(peak[0], len(running))
                np.sum(np.arange(200.0))
                with lock:
                    running.discard(i)
                yield
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_bounded([job(i) for i in range(3 * workers)],
                                  workers)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(3 * workers))
        assert overlaps == []
        assert 1 <= peak[0] <= workers

    def test_one_worker_steps_every_job_in_turn_on_one_thread(self):
        log = []
        assert run_bounded([stepper(log, i, 3) for i in range(3)], 1) == [0, 1, 2]
        assert [(i, step) for i, step, _ in log] == [
            (i, step) for step in range(3) for i in range(3)]
        assert {name for _, _, name in log} == {"imvc-worker-0"}

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy keeps its error state per context from 2.0")
    def test_callers_error_state_holds_inside_steps(self):
        def job():
            assert np.geterr()["over"] == "raise"
            yield
            assert np.geterr()["over"] == "raise"
            return np.float64(1e300) * np.float64(1e300)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_bounded([job() for _ in range(3)], 2)

    def test_once_is_a_job_of_one_step(self):
        assert run_bounded([parallel.once(divmod, 7, i) for i in (1, 2, 3)],
                           2) == [(7, 0), (3, 1), (2, 1)]
