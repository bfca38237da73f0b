"""Deterministic random-instance generation for the verification suites.

Every instance is a pure function of ``(recipe, index)``: per-instance
random generators are derived from seed sequences, so identical recipes
reproduce identical bundles, sections and measure triples bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .bundles import Bundle, Fiber, random_section
from .criterion import AtomicMeasureTriple
from .measure import MeasureSpace, _real, as_exponent
from .norms import (
    InnerProductNorm,
    NormSpec,
    PolyhedralMaxNorm,
    PolytopeGaugeNorm,
    WeightedLpNorm,
    check_facet_candidates,
)
from .serialize import ConfigError, _integer, _known_fields, bundle_digest

__all__ = [
    "InstanceRecipe",
    "instance_rng",
    "random_norm_spec",
    "random_bundle",
    "random_section",
    "random_measure_triple",
    "bundles_from_recipe",
    "bundle_digest",
]

ALL_KINDS = ("inner_product", "weighted_lp", "polyhedral_max", "polytope_gauge")

#: a polyhedral norm of dimension d is drawn with d + 1 to d + EXTRA_ROWS rows
EXTRA_ROWS = 3
UC_KINDS = ("inner_product", "weighted_lp")
#: atom counts of ``random_measure_triple``
TRIPLE_ATOM_RANGE = (2, 10)


@dataclass(frozen=True)
class InstanceRecipe:
    """Everything needed to regenerate a family of instances; checks
    itself on construction, like ``SearchBudget``."""

    seed: int = 0
    instance_count: int = 10
    atom_range: tuple = (2, 4)
    dim_range: tuple = (2, 3)
    kinds: tuple = ALL_KINDS
    lp_exponents: tuple = (1, 1.5, 2, 3, "inf")
    weight_range: tuple = (0.3, 3.0)
    exponents: tuple = (1.5, 2, 3)
    constant_fraction: float = 0.0
    zero_fiber_fraction: float = 0.0

    def __post_init__(self):
        for name in ("seed", "instance_count"):
            _integer(name, getattr(self, name), 0)
        for name in ("atom_range", "dim_range"):
            for bound in getattr(self, name):
                _integer(f"{name} bound", bound, 0)
        # fractions and weight bounds are finite numbers, never bools or strings
        for what, value, hi in (("constant_fraction", self.constant_fraction, 1),
                                ("zero_fiber_fraction", self.zero_fiber_fraction, 1),
                                *(("weight_range bound", w, math.inf) for w in self.weight_range)):
            if not _real(value) or not (math.isfinite(value) and 0 <= value <= hi):
                raise ValueError(f"{what} must be a finite number in [0, {hi}], got {value!r}")
        if not self.exponents:
            raise ValueError("exponents must be non-empty")
        for p in [*self.exponents, *self.lp_exponents]:
            as_exponent(p)
        unknown = set(self.kinds) - set(ALL_KINDS)
        if unknown or not self.kinds:
            raise ValueError(f"kinds must be a non-empty subset of {list(ALL_KINDS)}")
        (a_lo, a_hi), (d_lo, d_hi), (w_lo, w_hi) = (
            self.atom_range, self.dim_range, self.weight_range)
        if not (0 <= a_lo <= a_hi and 1 <= d_lo <= d_hi and 0 < w_lo <= w_hi):
            raise ValueError("ranges must be [lo, hi] with lo <= hi, at least 0 atoms, "
                             "dimension at least 1 and positive weights")
        if {"polyhedral_max", "polytope_gauge"} & set(self.kinds):
            check_facet_candidates(d_hi + EXTRA_ROWS, d_hi)


def recipe_from_config(cfg: dict) -> InstanceRecipe:
    """An instance recipe from its config mapping, JSON lists read as tuples
    and every other value as it is (the dataclass checks it, nothing is cast):
    every invalid or unknown field is a ``ConfigError``."""
    _known_fields(cfg, "recipe config", optional=[f.name for f in fields(InstanceRecipe)])
    try:
        return InstanceRecipe(**{key: tuple(value) if isinstance(value, list) else value
                                 for key, value in cfg.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"recipe config invalid: {exc}") from None


def instance_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one (instance, purpose) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index), int(stream)]))


def _rand_int(rng, lohi) -> int:
    return int(rng.integers(lohi[0], lohi[1] + 1))


def random_norm_spec(rng: np.random.Generator, kind: str, dim: int, lp_exponents) -> NormSpec:
    if kind == "inner_product":
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = rng.uniform(0.5, 2.2, size=dim)
        G = Q @ np.diag(lam) @ Q.T
        return InnerProductNorm(0.5 * (G + G.T))
    if kind == "weighted_lp":
        r = lp_exponents[int(rng.integers(0, len(lp_exponents)))]
        d = rng.uniform(0.5, 2.0, size=dim)
        return WeightedLpNorm(r, d)
    if kind == "polyhedral_max":
        while True:
            rows = dim + 1 + int(rng.integers(0, EXTRA_ROWS))
            A = rng.standard_normal((rows, dim))
            A = A / np.linalg.norm(A, axis=1)[:, None] * rng.uniform(0.7, 1.5, size=(rows, 1))
            if np.linalg.matrix_rank(A) == dim:
                return PolyhedralMaxNorm(A)
    if kind == "polytope_gauge":
        while True:
            rows = dim + 1 + int(rng.integers(0, EXTRA_ROWS))
            P = rng.standard_normal((rows, dim))
            P = P / np.linalg.norm(P, axis=1)[:, None] * rng.uniform(0.8, 1.4, size=(rows, 1))
            V = np.vstack([P, -P])
            if np.linalg.matrix_rank(V) == dim:
                return PolytopeGaugeNorm(V)
    raise ValueError(f"unknown norm kind: {kind!r}")


def _random_fiber(rng, recipe: InstanceRecipe) -> Fiber:
    """A positive-dimensional fiber: its dimension, kind and norm, drawn in
    that order."""
    dim = _rand_int(rng, recipe.dim_range)
    kind = recipe.kinds[int(rng.integers(0, len(recipe.kinds)))]
    return Fiber(dim, random_norm_spec(rng, kind, dim, recipe.lp_exponents))


def random_bundle(recipe: InstanceRecipe, index: int) -> Bundle:
    rng = instance_rng(recipe.seed, index, stream=1)
    n_atoms = _rand_int(rng, recipe.atom_range)
    weights = np.exp(rng.uniform(np.log(recipe.weight_range[0]),
                                 np.log(recipe.weight_range[1]), size=n_atoms))
    space = MeasureSpace([f"a{i}" for i in range(n_atoms)], weights)

    if rng.random() < recipe.constant_fraction:
        return Bundle(space, [_random_fiber(rng, recipe)] * n_atoms)
    return Bundle(space, [Fiber(0, None) if rng.random() < recipe.zero_fiber_fraction
                          else _random_fiber(rng, recipe) for _ in range(n_atoms)])


def bundles_from_recipe(recipe: InstanceRecipe) -> Iterator[tuple[int, Bundle]]:
    for index in range(recipe.instance_count):
        yield index, random_bundle(recipe, index)


# -- measure triples for the power-inequality lemma ---------------------------


def random_measure_triple(seed: int, index: int) -> AtomicMeasureTriple:
    """Candidate triples mixing always-valid constructions and free draws.

    The caller still rejection-tests the set-level hypothesis; the families
    here just make acceptance common enough to be useful.
    """
    rng = instance_rng(seed, index, stream=7)
    k = _rand_int(rng, TRIPLE_ATOM_RANGE)
    space = MeasureSpace([f"a{i}" for i in range(k)], rng.uniform(0.2, 2.0, size=k))
    f2 = rng.uniform(0.0, 2.0, size=k)
    f3 = rng.uniform(0.0, 2.0, size=k)
    family = int(rng.integers(0, 4))
    if family == 0:
        alpha = 1.0
        f1 = rng.uniform(0.0, 1.0) * (f2 + f3)
    elif family == 1:
        alpha = float(rng.uniform(0.2, 1.0))
        f1 = rng.uniform(0.0, 1.0) * (f2 + f3)
    elif family == 2:
        alpha = float(rng.uniform(1.0, 3.0))
        f1 = rng.uniform(0.0, 1.0) * np.minimum(f2, f3)
    else:
        # free draw: per-atom scaling, rejected by the caller when the
        # set-level hypothesis fails (common for alpha above one)
        alpha = float(rng.uniform(0.3, 2.5))
        f1 = rng.uniform(0.0, 1.0, size=k) * (f2 + f3)
    return AtomicMeasureTriple(space, f1, f2, f3, alpha)
