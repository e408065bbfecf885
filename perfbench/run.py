#!/usr/bin/env python3
"""imvc benchmark: two fit workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fit-acceptance --seed 1 --seconds 50 --trace 0

Workloads: fit-acceptance and fit-large (workloads.WORKLOADS). One process,
one caller, closed loop. The run first sets up (input generation, CSV
writing and a warm-up fit), then makes one fit op, then read ops on the
saved model (load, ingest, predict, explain) back to back until `--seconds`
have passed since the fit op started. `setup_s` is the time from process
start to the first timed op: the median of this process's and of
workloads.COLD_SETUPS further processes' that only set up (`--setup-only`),
run after the timed ops.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (workloads.END_TO_END); with `--trace 1`
the run wraps imvc's public functions from outside (tracer.py) and the
metrics are the per-layer ones (tracer.PER_LAYER). A full record of each
run, with its environment, goes to `.bench_out/results/`, and the spans of
a traced run beside it.

Each workload pins the data seed and fit seed of its training set
(override with --data-seed / --fit-seed), so every run does the same
training work. `--seed` generates everything else the run feeds the
program: the warm-up data and the query rows of the read ops.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here, imports included

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread unless the caller chose otherwise.

    Runs before numpy is imported. The fits multiply small matrices (at most
    4000 rows by 128 columns), so a second thread gains little, and with one
    the run does not depend on how a shared machine schedules another.
    """
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def import_imvc() -> None:
    """Import imvc from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import imvc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import imvc from {src}: {exc}")
    if not Path(imvc.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imvc imported from {imvc.__file__}, not {src}")


if __name__ == "__main__":
    pin_blas_threads()
    import_imvc()
    from workloads import main
    sys.exit(main(T0))
