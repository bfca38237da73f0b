"""Workload definitions: seeded config generation and output checks.

Each workload turns ``(seed, index)`` into one ``bundlelab`` run config, and
checks the files that run wrote.  Configs are built with the standard
library's ``random.Random`` only, so the inputs do not depend on the code
under test: the same seed gives byte-identical configs on every commit.
"""

from __future__ import annotations

import csv
import hashlib
import random
from pathlib import Path

# The catalogue of the README's `criterion` example: one PASS entry and four
# entries built to fail restriction additivity.
CRITERION_CATALOGUE = (
    {"tag": "induced", "p": 2},
    {"tag": "induced", "p": 2, "p_check": 3, "expect": "FAIL"},
    {"tag": "sup-over-atoms"},
    {"tag": "mixed-sum"},
    {"tag": "mixed-max"},
)


def _rng(seed: int, index: int, stream: str) -> random.Random:
    # string seeds hash through SHA-512 in random.seed, independent of
    # PYTHONHASHSEED, so streams are stable across processes
    return random.Random(f"{stream}:{seed}:{index}")


def _rows(rng: random.Random, count: int, dim: int) -> list:
    return [[round(rng.gauss(0.0, 1.0), 6) for _ in range(dim)] for _ in range(count)]


def norm_config(rng: random.Random, kind: str, dim: int) -> dict:
    """A random norm of one kind on R^dim, in the CLI's JSON schema."""
    if kind == "inner_product":
        a = _rows(rng, dim, dim)
        gram = [[sum(a[i][k] * a[j][k] for k in range(dim)) + (0.5 if i == j else 0.0)
                 for j in range(dim)] for i in range(dim)]
        return {"kind": kind, "gram": gram}
    if kind == "weighted_lp":
        return {"kind": kind, "r": rng.choice([1, "3/2", 2, 3, "inf"]),
                "weights": [round(rng.uniform(0.5, 2.0), 6) for _ in range(dim)]}
    # Gaussian rows are in general position, so they span R^dim and the
    # symmetric hull has the origin in its interior
    rows = _rows(rng, dim + 1 + rng.randrange(3), dim)
    if kind == "polyhedral_max":
        return {"kind": kind, "functionals": rows}
    if kind == "polytope_gauge":
        return {"kind": kind, "vertices": rows + [[-x for x in r] for r in rows]}
    raise ValueError(f"unknown norm kind {kind!r}")


def bundle_config(rng: random.Random, kinds) -> dict:
    """A bundle with one fiber of each listed kind, in shuffled atom order."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    fibers = []
    for kind in kinds:
        dim = rng.choice((2, 3))
        fibers.append({"dimension": dim, "norm": norm_config(rng, kind, dim)})
    n = len(kinds)
    return {
        "space": {"atoms": [f"a{i}" for i in range(n)],
                  "weights": [round(rng.uniform(0.5, 2.0), 6) for _ in range(n)]},
        "fibers": fibers,
    }


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every report file except the timestamped summary.md."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "summary.md":
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Check:
    """What one run produced: work done, unexpected rows and other problems."""

    def __init__(self):
        self.items = 0
        self.unexpected = 0
        self.problems: list[str] = []
        self.deltas: list[float] = []

    @property
    def ok(self) -> bool:
        return not self.unexpected and not self.problems


class SectionModulus:
    """`bundlelab suite` with `uc-upper` on seeded recipes."""

    name = "section-modulus"
    command = "suite"
    item = "curves"
    sizes = {
        "full": {"instance_count": 8, "grid": [1.0, 2.0],
                 "budget": {"restarts": 4, "iterations": 20}},
        "tiny": {"instance_count": 1, "grid": [1.0, 2.0],
                 "budget": {"restarts": 2, "iterations": 4}},
    }
    exponents = (1.5, 3)
    # Instance cost varies about fivefold with the atom count, the fiber
    # dimension, whether the bundle is constant and the norm kind (a
    # polytope gauge costs two to three times an inner product).  Config k
    # takes all four from the cycle below, so every run has the same mix of
    # shapes and kinds and the seed varies only the coefficients: each kind
    # twice, each (atoms, dimension) pair twice, three of eight configs all
    # constant bundles.  Mixing kinds inside a recipe would let the random
    # kind draws move a run's time by more than the machine does.
    strata = ((2, 3, 0.0, "polytope_gauge"), (3, 3, 0.0, "inner_product"),
              (2, 2, 0.0, "weighted_lp"), (3, 2, 0.0, "polyhedral_max"),
              (3, 2, 1.0, "polytope_gauge"), (2, 3, 1.0, "polyhedral_max"),
              (3, 3, 0.0, "weighted_lp"), (2, 2, 1.0, "inner_product"))
    cycle = len(strata)

    def config(self, seed: int, index: int, size: str = "full") -> dict:
        s = self.sizes[size]
        atoms, dim, constant, kind = self.strata[index % self.cycle]
        recipe = {
            # recipe seeds are non-negative and distinct for distinct
            # (seed, index) pairs while index < 10**6
            "seed": seed * 1_000_000 + index,
            "instance_count": s["instance_count"],
            "atom_range": [atoms, atoms],
            "dim_range": [dim, dim],
            "kinds": [kind],
            "constant_fraction": constant,
            "exponents": list(self.exponents),
        }
        return {"suites": ["uc-upper"], "recipes": {"uc-upper": recipe},
                "grid": s["grid"], "budget": s["budget"]}

    def check(self, cfg: dict, out_dir: Path) -> Check:
        c = Check()
        rows = _read_csv(out_dir / "suite_reports.csv")
        recipe = cfg["recipes"]["uc-upper"]
        curves = [r for r in rows if r["check"].startswith("upper-bound-gap-p")]
        want = recipe["instance_count"] * len(recipe["exponents"])
        if len(curves) != want:
            c.problems.append(f"{len(curves)} section curves reported, expected {want}")
        c.unexpected = sum(r["verdict"] != r["expected"] for r in rows)
        c.items = len(curves)
        dats = sorted(out_dir.glob("uc-upper-*-section-curve-p*.dat"))
        if len(dats) != len(curves):
            c.problems.append(f"{len(dats)} section-curve .dat files for {len(curves)} curves")
        for path in dats:
            points = [line.split() for line in path.read_text().splitlines()
                      if line and not line.startswith("#")]
            if [float(p[0]) for p in points] != [float(e) for e in cfg["grid"]]:
                c.problems.append(f"{path.name}: separations differ from the grid")
            for _, delta in points:
                d = float(delta)
                if not 0.0 <= d <= 1.0:
                    c.problems.append(f"{path.name}: delta {d!r} outside [0, 1]")
                c.deltas.append(d)
        return c


class CriterionEnum:
    """`bundlelab criterion` with the README catalogue, full subset enumeration."""

    name = "criterion-enum"
    command = "criterion"
    item = "subset_probes"
    cycle = 1
    sizes = {
        "full": {"atoms": 5, "gauges": 2, "probes": 1},
        "tiny": {"atoms": 3, "gauges": 1, "probes": 1},
    }

    def config(self, seed: int, index: int, size: str = "full",
               catalogue=CRITERION_CATALOGUE) -> dict:
        s = self.sizes[size]
        rng = _rng(seed, index, self.name)
        others = ("inner_product", "weighted_lp", "polyhedral_max")
        kinds = ["polytope_gauge"] * s["gauges"] + [
            others[i % len(others)] for i in range(s["atoms"] - s["gauges"])]
        return {"bundle": bundle_config(rng, kinds), "probes": s["probes"],
                "seed": seed, "norms": [dict(e) for e in catalogue]}

    def check(self, cfg: dict, out_dir: Path) -> Check:
        c = Check()
        rows = _read_csv(out_dir / "criterion_rows.csv")
        entries = len(cfg["norms"])
        if len(rows) != 3 * entries:
            c.problems.append(f"{len(rows)} criterion rows, expected {3 * entries}")
        c.unexpected = sum(r["verdict"] != r["expected"] for r in rows)
        additivity = sum(r["check"] == "restriction-additivity" for r in rows)
        atoms = len(cfg["bundle"]["fibers"])
        # full enumeration: every subset of the atoms for every probe section
        c.items = additivity * 2**atoms * cfg["probes"]
        return c


class DualitySampled:
    """`bundlelab dual-check` at p = 3 with sampled covector/section pairs."""

    name = "duality-sampled"
    command = "dual-check"
    item = "samples"
    cycle = 1
    sizes = {"full": {"samples": 80}, "tiny": {"samples": 4}}
    kinds = ("polyhedral_max", "polytope_gauge", "polyhedral_max",
             "polytope_gauge", "weighted_lp")

    def config(self, seed: int, index: int, size: str = "full") -> dict:
        rng = _rng(seed, index, self.name)
        return {"bundle": bundle_config(rng, self.kinds), "p": 3,
                "samples": self.sizes[size]["samples"], "seed": seed}

    def check(self, cfg: dict, out_dir: Path) -> Check:
        c = Check()
        rows = _read_csv(out_dir / "dual_residuals.csv")
        want = 2 * cfg["samples"] + 2
        if len(rows) != want:
            c.problems.append(f"{len(rows)} residual rows, expected {want}")
        c.unexpected = sum(r["passed"] != "true" for r in rows)
        c.items = sum(r["sample"].startswith("s") for r in rows) // 2
        return c


WORKLOADS = {w.name: w for w in (SectionModulus(), CriterionEnum(), DualitySampled())}

