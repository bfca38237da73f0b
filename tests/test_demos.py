"""Every demo runs to completion at a small size, so none of them calls a
name the package no longer has.  Every name a module lists in ``__all__``
exists and has a caller outside the tests, scipy stays confined to the
one lazy import in ``norms.linprog``, the duality quantities keep one
composer, and each norm kind states its fields once."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bundlelab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(bundlelab.__file__).resolve().parent
SRC = str(PACKAGE.parent)

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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exported(tree: ast.Module) -> list:
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _referenced(tree: ast.Module) -> set:
    """Every name, attribute and imported name the module mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    """A name that only the tests call is a test helper, and lives under
    ``tests/``: each ``__all__`` entry is mentioned by a library module other
    than ``__init__.py``, a demo, ``tools/`` or ``perfbench/``."""
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "tools", "perfbench"):
        callers += sorted((ROOT / folder).rglob("*.py"))
    used = set().union(*(_referenced(_parse(p)) for p in callers))
    unused = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
              for name in _exported(_parse(p)) if name not in used]
    assert unused == []


def _norm_kinds() -> list:
    """Every norm kind the package defines, at least the four of ``norms``."""
    from bundlelab.norms import NormSpec

    kinds, todo = [], [NormSpec]
    while todo:
        subclasses = todo.pop().__subclasses__()
        kinds += subclasses
        todo += subclasses
    kinds = [cls for cls in kinds if cls.__module__.startswith("bundlelab.")]
    assert len(kinds) >= 4
    return kinds


def test_no_norm_kind_defines_its_own_norm():
    """A single vector's norm has one route, ``NormSpec.norm``, the one-row
    ``norm_batch``: no norm kind of the package defines ``norm``."""
    assert [cls.__name__ for cls in _norm_kinds() if "norm" in vars(cls)] == []


def test_no_norm_kind_writes_its_own_config_or_digest():
    """A kind states its fields once, in ``fields``: ``NormSpec`` writes
    every kind's config and digest from it, and no kind defines
    ``config_dict`` or ``_digest_parts``."""
    assert [f"{cls.__name__}.{name}" for cls in _norm_kinds()
            for name in ("config_dict", "_digest_parts") if name in vars(cls)] == []
    assert all(cls.fields for cls in _norm_kinds())


def _imported_modules(node) -> list:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module or ""] if isinstance(node, ast.ImportFrom) else []


def test_scipy_stays_in_the_linprog_shim():
    """The library's one scipy import is the lazy one in ``norms.linprog``,
    and no library code calls ``linprog``: building and evaluating norms
    never reaches an LP solver, which is only the tests' oracle."""
    imports, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        shim = {id(node) for f in tree.body if path.name == "norms.py"
                and isinstance(f, ast.FunctionDef) and f.name == "linprog" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if any(m.split(".")[0] == "scipy" for m in _imported_modules(node)):
                imports.append("norms.linprog" if id(node) in shim else f"{path.name}:{node.lineno}")
            callee = getattr(node, "func", None)
            if getattr(callee, "id", getattr(callee, "attr", None)) == "linprog":
                calls.append(f"{path.name}:{node.lineno}")
    assert imports == ["norms.linprog"]
    assert calls == []


def test_duality_quantities_have_one_composer():
    """dual-check and the duality suite read their operator norms, L^p and
    L^q norms and pairings from ``duality._duality_rows`` alone: neither
    ``cli.py`` nor ``suites.py`` imports the row helpers it composes."""
    helpers = {"_holder_rows", "_section_lp_rows", "_pairing_rows", "_integral"}
    imported = {f"{name}:{alias.name}" for name in ("cli.py", "suites.py")
                for node in ast.walk(_parse(PACKAGE / name)) if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in helpers}
    assert imported == set()
