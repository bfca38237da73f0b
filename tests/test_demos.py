"""Every demo runs to completion at a small size, so none of them calls a
name the package no longer has, and every name a module lists in
``__all__`` exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bundlelab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(bundlelab.__file__).resolve().parents[1])

#: small-size arguments of each demo
ARGS = {
    "bundle_walkthrough.py": [],
    "duality_tour.py": [],
    "hilbert_dichotomy.py": ["--count", "3"],
    "measure_inequality.py": ["--samples", "50"],
    "modulus_curves.py": ["--restarts", "4", "--iterations", "10"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("demo", sorted(ARGS))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *ARGS[demo]],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout


@pytest.mark.parametrize("module", ["bundlelab"] + [
    f"bundlelab.{m.name}" for m in pkgutil.iter_modules(bundlelab.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
