"""The scheduler, the CPU count, the one-thread OpenBLAS pin and the view
workers' count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so each starting
count is probed in a fresh interpreter. Every probe runs OpenBLAS at one
or two threads.
"""

import contextvars
import itertools
import json
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import imvc
from imvc import kmeans as kmeans_mod
from imvc import parallel, pipeline
from imvc.pipeline import PipelineConfig

from test_training import training_digest

# the getter and setter of numpy's bundled OpenBLAS, or None
OPENBLAS = parallel._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None,
                                    reason="numpy bundles no OpenBLAS")
CALLERS_COUNT = 3       # the caller's count in these tests; the pin sets 1

# prints the OpenBLAS count before a fit, then, for 1 to 5 usable CPUs, the
# view workers and the OpenBLAS count inside a fit of three views, then the
# count after the fits
PROBE = """
import json
import numpy as np
from imvc import parallel, pipeline
get, _ = parallel._openblas()
before, inside = get(), {}
real = pipeline._view_workers
views = [np.arange(24.0).reshape(12, 2) % 5 for _ in range(3)]
for cpus in range(1, 6):
    parallel.usable_cpus = lambda cpus=cpus: cpus
    pipeline._view_workers = lambda n, cpus=cpus: inside.setdefault(
        cpus, [real(n), get()])[0]
    pipeline.fit(views, pipeline.PipelineConfig(k=2, e1=1, min_num=1,
                                                outer_cycles=0))
print(json.dumps([before, inside, get()]))
"""


def subprocess_env(**threads):
    """os.environ with src/ and tests/ on the path and `threads` as BLAS
    variables, thread counts or the kernel; a value of None unsets the
    variable."""
    src = str(Path(imvc.__file__).resolve().parent.parent)
    env = dict(os.environ, OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, str(Path(__file__).resolve().parent),
                    *filter(None, [os.environ.get("PYTHONPATH")])]))
    for var, value in threads.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    return env


def run_python(code: str, **threads):
    """The JSON that `code`, run in a fresh interpreter, prints last."""
    done = subprocess.run([sys.executable, "-c", code],
                          env=subprocess_env(**threads), capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def probe(blas_threads: int):
    before, inside, after = run_python(
        PROBE, OPENBLAS_NUM_THREADS=str(blas_threads))
    return before, {int(cpus): tuple(got) for cpus, got in inside.items()}, after


@needs_openblas
class TestBlasProbe:
    def test_one_blas_thread_gives_a_worker_per_cpu(self):
        before, inside, after = probe(1)
        assert before == after == 1
        assert inside == {cpus: (min(3, cpus), 1) for cpus in range(1, 6)}

    @pytest.mark.skipif(parallel.usable_cpus() < 2,
                        reason="OpenBLAS caps its threads at the CPU count")
    def test_two_blas_threads_give_a_worker_per_cpu(self):
        before, inside, after = probe(2)
        assert before == after == 2
        assert inside == {cpus: (min(3, cpus), 1) for cpus in range(1, 6)}


def tiny_views(n_views=3, n=12):
    rng = np.random.default_rng(5)
    return [rng.standard_normal((n, 2)) for _ in range(n_views)]


TINY = PipelineConfig(k=2, e1=2, e2=2, min_num=1, outer_cycles=1)


def record_view_workers(monkeypatch):
    """A list that collects (view workers, OpenBLAS count) at each call of
    `pipeline._view_workers`; the count is None without OpenBLAS."""
    seen, real = [], pipeline._view_workers

    def recording(n_views):
        seen.append((real(n_views), OPENBLAS and OPENBLAS[0]()))
        return seen[-1][0]
    monkeypatch.setattr(pipeline, "_view_workers", recording)
    return seen


@pytest.fixture()
def callers_count():
    """OpenBLAS set to CALLERS_COUNT threads for the test, and put back;
    None without OpenBLAS."""
    if OPENBLAS is None:
        yield None
        return
    get, set_ = OPENBLAS
    saved = get()
    set_(CALLERS_COUNT)
    try:
        yield CALLERS_COUNT
    finally:
        set_(saved)


def test_unreadable_blas_count_gives_one_worker(callers_count, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    assert parallel._openblas() is None
    seen = record_view_workers(monkeypatch)
    pipeline.fit(tiny_views(), TINY)
    assert set(seen) == {(1, callers_count)}
    assert (OPENBLAS and OPENBLAS[0]()) == callers_count


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.usable_cpus() == (os.cpu_count() or 1)


@needs_openblas
def test_kmeans_and_view_pools_share_the_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    threads, real_lloyd = set(), kmeans_mod.lloyd
    calls = itertools.count()
    # the first three restarts wait for each other, so they hold three
    # threads at once
    first_three = threading.Barrier(3, timeout=60)

    def recording_lloyd(*args, **kwargs):
        threads.add(threading.current_thread().name)
        if next(calls) < 3:
            first_three.wait()
        return real_lloyd(*args, **kwargs)
    monkeypatch.setattr(kmeans_mod, "lloyd", recording_lloyd)
    kmeans_mod.kmeans(np.arange(60.0).reshape(20, 3) % 7, 2, seed=0)
    assert threads == {f"imvc-worker-{w}" for w in range(3)}
    seen = record_view_workers(monkeypatch)
    pipeline.fit(tiny_views(5), TINY)
    assert set(seen) == {(3, 1)}
    assert pipeline._view_workers(5) == 1       # outside fit


@needs_openblas
class TestBlasPin:
    """`fit` holds OpenBLAS at one thread and gives the caller's count
    back however it ends."""

    def test_count_restored_after_a_fit(self, callers_count, monkeypatch):
        seen = record_view_workers(monkeypatch)
        pipeline.fit(tiny_views(), TINY)
        assert {count for _, count in seen} == {1}
        assert OPENBLAS[0]() == callers_count

    def test_count_restored_after_a_failing_fit(self, callers_count,
                                                monkeypatch):
        def fail(*args, **kwargs):
            assert OPENBLAS[0]() == 1
            raise RuntimeError("training failed")
        monkeypatch.setattr(pipeline, "_train_epochs", fail)
        with pytest.raises(RuntimeError, match="training failed"):
            pipeline.fit(tiny_views(), TINY)
        assert OPENBLAS[0]() == callers_count
        assert not parallel.pinned.get()

    def test_count_restored_after_overlapping_fits(self, callers_count):
        # the count is process-wide, so the later fit waits for the pin
        views = tiny_views(n=40)
        want = training_digest(pipeline.fit(views, TINY))
        start = threading.Barrier(2, timeout=60)

        def fit():
            start.wait()
            return training_digest(pipeline.fit(views, TINY))

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(fit) for _ in range(2)]
            assert [f.result(timeout=120) for f in futures] == [want, want]
        assert OPENBLAS[0]() == callers_count


# fits the acceptance data's shape (3 views x 8 features, 600 rows) and
# prints the sha256 of the model file and the training digest
DIGESTS = """
import hashlib, json, tempfile
from pathlib import Path
from imvc import data, pipeline
from test_training import training_digest
views, _ = data.synth_multiview(200, 3, 3, 8, 0.5, seed=42)
state = pipeline.fit(views, pipeline.PipelineConfig(k=3, e1=5, e2=5,
                                                    outer_cycles=1, seed=1))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.bin"
    data.save_model(state, path)
    model = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps([model, training_digest(state)]))
"""


@needs_openblas
@pytest.mark.skipif(parallel.usable_cpus() < 2,
                    reason="OpenBLAS caps its threads at the CPU count")
def test_one_training_state_at_every_blas_thread_count():
    # at 300 rows one and two threads happen to agree without the pin
    got = {threads: tuple(run_python(DIGESTS, OPENBLAS_NUM_THREADS=threads))
           for threads in ("1", "2", None)}
    assert got["2"] == got["1"]
    assert got[None] == got["1"]


# the OpenBLAS kernels OPENBLAS_CORETYPE can force, each with the CPU
# feature, as numpy names it, that the kernel needs
CORETYPES = {"Prescott": "SSE3", "Nehalem": "SSE42", "Sandybridge": "AVX",
             "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}


@needs_openblas
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernels named are x86-64 ones")
def test_one_model_on_every_openblas_kernel():
    got = {kernel: tuple(run_python(DIGESTS, OPENBLAS_NUM_THREADS="1",
                                    OPENBLAS_CORETYPE=kernel))
           for kernel, feature in CORETYPES.items()
           if __cpu_features__.get(feature)}
    models = {model for model, _ in got.values()}
    digests = {digest for _, digest in got.values()}
    assert len(models) == 1, got
    # the kernels round the training's matmuls differently, which shows
    # that each run took the kernel it was given
    assert len(digests) >= 2, got


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

    def test_callers_error_state_holds_inside_steps(self):
        def job():
            assert np.geterr()["over"] == "raise"
            yield
            assert np.geterr()["over"] == "raise"
            return np.float64(1e300) * np.float64(1e300)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                run_bounded([job() for _ in range(3)], 2)

    def test_more_workers_than_jobs_start_one_thread_per_job(self,
                                                             monkeypatch):
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", RecordingThread)
        log = []
        assert run_bounded([stepper(log, i, 5) for i in range(3)], 8) == [
            0, 1, 2]
        assert sorted(name for name in started
                      if name.startswith("imvc-worker-")) == [
            f"imvc-worker-{w}" for w in range(3)]
        assert {name for _, _, name in log} <= set(started)

    def test_once_is_a_job_of_one_step(self):
        assert run_bounded([parallel.once(divmod, 7, i) for i in (1, 2, 3)],
                           2) == [(7, 0), (3, 1), (2, 1)]
