"""Hypothesis runs derandomized and without an example database, so every
process draws the same examples and no local state carries over.  BLAS
pools run one thread, as in the benchmark, so that ``pair_search`` may
split its searches over the CPUs.  No test may leave a child process
behind."""

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
