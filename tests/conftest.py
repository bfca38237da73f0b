"""Hypothesis runs derandomized and without an example database, so every
process draws the same examples and no local state carries over.  BLAS
pools run one thread, as in the benchmark, so that ``pair_search`` may
split its searches over the CPUs.  No test may leave a child process
behind.  The ``assert_norm_axioms`` fixture spot-checks a norm kind."""

import glob
import os
import signal
import sys

import pytest
from hypothesis import settings

# before numpy loads its BLAS, which reads these once
if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def _running_children() -> list:
    """Pids of this process's children, where Linux lists them."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as f:
            pids += [int(pid) for pid in f.read().split()]
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process running or unreaped; a
    running one is killed and reaped, so later tests are not blamed."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"child process {pid} exited (wait status {status}) but was never reaped")
    for child in _running_children():
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    pytest.fail("a child process was still running after the test")


@pytest.fixture
def assert_norm_axioms():
    """Randomized spot check of a norm kind's axioms, and of its batched
    kernel against the matrix-vector oracle ``single_vector_norm``; raises
    AssertionError on failure."""
    import numpy as np  # not at the top: BLAS must see the thread settings above
    from oracles import single_vector_norm

    def check(spec, probes=32, seed=0, tol=1e-9):
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((probes, spec.dimension))
        W = rng.standard_normal((probes, spec.dimension))
        t = rng.uniform(-3.0, 3.0, size=probes)
        nv = spec.norm_batch(V)
        nw = spec.norm_batch(W)
        if np.any(nv <= 0.0):
            raise AssertionError(f"{spec.kind}: vanishing norm on a nonzero vector")
        hom = np.abs(spec.norm_batch(V * t[:, None]) - np.abs(t) * nv)
        if np.max(hom) > tol * max(1.0, np.max(nv)):
            raise AssertionError(f"{spec.kind}: homogeneity violated ({np.max(hom):.2e})")
        tri = spec.norm_batch(V + W) - (nv + nw)
        if np.max(tri) > tol * max(1.0, np.max(nv + nw)):
            raise AssertionError(f"{spec.kind}: triangle inequality violated ({np.max(tri):.2e})")
        single = np.array([single_vector_norm(spec, v) for v in V])
        if np.max(np.abs(single - nv)) > 1e-9 * max(1.0, np.max(nv)):
            raise AssertionError(f"{spec.kind}: batch and matrix-vector evaluation disagree")

    return check
