"""CPU and BLAS thread counts, and the view pool's size drawn from them.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so each count is
probed in a fresh interpreter. Every probe runs OpenBLAS at one or two
threads.
"""

import json
import os
import subprocess
import sys
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
