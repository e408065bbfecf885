"""imvc runs on numpy 2 alone: neither importing it nor fitting loads
scipy, and the declared numpy floor is one the code's numpy behaviour
holds on.

scipy stays a test dependency (the assignment solver's oracle), so the
check runs in a fresh interpreter, where nothing else has imported it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import imvc

PYPROJECT = Path(imvc.__file__).resolve().parents[2] / "pyproject.toml"

# imports the package and its CLI, fits one joint cycle (so tree_phase
# matches labels), scores it, and prints every scipy module then loaded
PROBE = """
import sys
import imvc
import imvc.cli
views, truth = imvc.synth_multiview(n_per_cluster=10, k=2, n_views=2,
                                    dims=3, noise=0.3, seed=0)
state = imvc.fit(views, imvc.PipelineConfig(k=2, e1=2, e2=2, min_num=3,
                                            outer_cycles=1, seed=0))
assert state.cycles_run == 1
imvc.clustering_accuracy(state.labels.hard, truth)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_fit_load_no_scipy():
    src = str(Path(imvc.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def version_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in re.findall(r"\d+", text)[:3])


def test_numpy_floor_is_2_and_installed_numpy_meets_it():
    # numpy 2.0 is the first release where np.errstate lives in a context
    # variable (so parallel.run's copied contexts carry it to the workers),
    # where leaving np.errstate restores np.setbufsize (loss_and_grads),
    # and whose wheels bundle the scipy_openblas symbols that
    # parallel.one_blas_thread sets
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', PYPROJECT.read_text())
    assert version_tuple(floor) >= (2, 0)
    assert version_tuple(np.__version__) >= version_tuple(floor)
