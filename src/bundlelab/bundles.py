"""Normed vector bundles over finite atomic measure spaces, and their sections.

A bundle assigns each atom a fiber dimension and a norm kind; a section
picks one vector per atom.  Section spaces carry the weighted L^p norm of
the pointwise-norm field and the module action by scalar fields; their
moduli of convexity are searched alongside those of the fibers, and each
section curve carries the fiber curves its search was seeded from in
``meta["fiber_curves"]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convexity import (
    DEFAULT_BUDGET,
    DEFAULT_EPS_GRID,
    ModulusCurve,
    SearchBudget,
    SearchGroup,
    check_eps_grid,
    curve_from_search,
    modulus_curves,
    pair_search,
    structured_pairs_for_fn,
)
from .measure import MeasureSpace, ScalarField, _reals, as_exponent
from .norms import NormSpec, _sum_columns

__all__ = [
    "Fiber",
    "Bundle",
    "Section",
    "pointwise_norm",
    "section_lp_norm",
    "module_action",
    "random_section",
    "section_modulus_curve",
    "section_modulus_curves",
    "parallelogram_residual",
]

@dataclass(frozen=True)
class Fiber:
    """One atom's vector space: a dimension and (if positive) a norm kind."""

    dimension: int
    norm: NormSpec | None = None

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError("fiber dimension must be a nonnegative integer")
        if self.dimension == 0:
            if self.norm is not None:
                raise ValueError("zero-dimensional fibers carry no norm")
        else:
            if self.norm is None:
                raise ValueError("positive-dimensional fibers need a norm")
            if self.norm.dimension != self.dimension:
                raise ValueError(
                    f"norm dimension {self.norm.dimension} does not match "
                    f"fiber dimension {self.dimension}"
                )


class Bundle:
    """A finite atomic measure space with one normed fiber per atom."""

    def __init__(self, space: MeasureSpace, fibers: Sequence[Fiber]):
        self.space = space
        self.fibers = tuple(fibers)
        if len(self.fibers) != space.atom_count:
            raise ValueError("one fiber per atom required")
        for f in self.fibers:
            if not isinstance(f, Fiber):
                raise TypeError("fibers must be Fiber instances")
        self.dimensions = np.array([f.dimension for f in self.fibers], dtype=int)
        # atom x's coordinates in a flat section are offsets[x]:offsets[x + 1]
        self.offsets = np.concatenate([[0], np.cumsum(self.dimensions)])
        self._dual = None

    @property
    def total_dimension(self) -> int:
        return int(self.offsets[-1])

    @property
    def degenerate(self) -> bool:
        """True when every fiber is zero-dimensional (or there are no atoms)."""
        return bool(np.all(self.dimensions == 0))

    @property
    def is_constant(self) -> bool:
        """Same dimension and same norm content (by digest) at every atom."""
        return len(set(self.dimensions.tolist())) <= 1 and len(self._norm_runs) <= 1

    def dual(self) -> "Bundle":
        """Bundle of dual fibers over the same measure space.

        Its own dual is this bundle (the fiberwise bidual E** = E), so the
        sections of either bundle act on the sections of the other.
        """
        if self._dual is None:
            self._dual = Bundle(
                self.space,
                [
                    Fiber(f.dimension, f.norm.dual() if f.dimension > 0 else None)
                    for f in self.fibers
                ],
            )
            self._dual._dual = self
        return self._dual

    @functools.cached_property
    def _norm_runs(self) -> list:
        """``[spec, first atom, stop atom]`` of each run of adjacent atoms
        that share a fiber norm (by digest), skipping zero-dimensional
        fibers; built on first use, like ``dual()``."""
        runs = []
        last = None
        for x, f in enumerate(self.fibers):
            key = f.norm.digest() if f.dimension else None
            if key is not None and key == last:
                runs[-1][2] = x + 1
            elif key is not None:
                runs.append([f.norm, x, x + 1])
            last = key
        return runs

    def __repr__(self):
        kinds = [f.norm.kind if f.norm else "zero" for f in self.fibers]
        return f"Bundle(atoms={self.space.atom_count}, dims={self.dimensions.tolist()}, kinds={kinds})"


class Section:
    """A choice of one fiber vector per atom, stored end to end in one flat
    vector ``coords`` of length ``bundle.total_dimension``.

    ``vectors`` lists the atoms' vectors as views into ``coords``, so a
    write through one of them changes the section.
    """

    def __init__(self, bundle: Bundle, vectors: Sequence):
        if len(vectors) != bundle.space.atom_count:
            raise ValueError("one vector per atom required")
        if not all(map(_reals, vectors)):
            raise ValueError("section vectors must be real numbers, not booleans or strings")
        arrays = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
        sizes = [len(a) for a in arrays]
        if sizes != bundle.dimensions.tolist():
            x = next(x for x, (n, d) in enumerate(zip(sizes, bundle.dimensions)) if n != d)
            raise ValueError(
                f"vector at atom index {x} has shape {arrays[x].shape}, "
                f"fiber dimension is {bundle.dimensions[x]}"
            )
        self._set(bundle, np.concatenate(arrays) if arrays else np.zeros(0))

    @classmethod
    def from_coords(cls, bundle: Bundle, coords) -> "Section":
        """The section whose flat coordinate vector is ``coords`` (used
        as given, not copied)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (bundle.total_dimension,):
            raise ValueError(
                f"flat section of length {bundle.total_dimension} expected, got shape {coords.shape}"
            )
        section = cls.__new__(cls)
        section._set(bundle, coords)
        return section

    def _set(self, bundle: Bundle, coords: np.ndarray) -> None:
        if not np.all(np.isfinite(coords)):
            first = np.flatnonzero(~np.isfinite(coords))[0]
            x = int(np.searchsorted(bundle.offsets, first, side="right")) - 1
            raise ValueError(f"vector at atom index {x} must be finite")
        self.bundle = bundle
        self.coords = coords

    @functools.cached_property
    def vectors(self) -> list:
        o = self.bundle.offsets.tolist()
        return [self.coords[o[x] : o[x + 1]] for x in range(len(o) - 1)]

    def __add__(self, other: "Section") -> "Section":
        _same_bundle(self.bundle, other.bundle, "sections live on different bundles")
        return Section.from_coords(self.bundle, self.coords + other.coords)

    def __sub__(self, other: "Section") -> "Section":
        _same_bundle(self.bundle, other.bundle, "sections live on different bundles")
        return Section.from_coords(self.bundle, self.coords - other.coords)

    def scale(self, t: float) -> "Section":
        return Section.from_coords(self.bundle, float(t) * self.coords)

    def __repr__(self):
        return f"Section({[v.tolist() for v in self.vectors]!r})"


def random_section(bundle: Bundle, rng: np.random.Generator) -> Section:
    """A section with independent standard normal coordinates, drawn as one
    flat vector."""
    return Section.from_coords(bundle, rng.standard_normal(bundle.total_dimension))


def _same_bundle(a: Bundle, b: Bundle, message: str) -> None:
    """Raise ``ValueError(message)`` unless the bundles share their measure
    space and fiber dimensions."""
    if a is not b and (a.space != b.space or list(a.dimensions) != list(b.dimensions)):
        raise ValueError(message)


# -- pointwise and integrated norms -----------------------------------------


def pointwise_norm(section: Section) -> ScalarField:
    """Fiber norm of the section at each atom (0 on zero-dimensional fibers):
    the one-row case of ``_atom_norms``."""
    return ScalarField(section.bundle.space, _atom_norms(section.bundle)(section.coords[None])[:, 0])


def section_lp_norm(section: Section, p) -> float:
    """Weighted L^p norm of the pointwise-norm field (the section-space norm):
    the one-row case of ``_section_lp_rows``."""
    return float(_section_lp_rows(section.bundle, section.coords[None], p)[0])


def module_action(f, section: Section) -> Section:
    """Multiply a section by a scalar field, atom by atom."""
    if isinstance(f, ScalarField):
        if f.space != section.bundle.space:
            raise ValueError("field and section live on different measure spaces")
        values = f.values
    else:
        values = np.asarray(f, dtype=float)
        if values.shape != (section.bundle.space.atom_count,):
            raise ValueError("scalar field needs one value per atom")
    bundle = section.bundle
    return Section.from_coords(bundle, np.repeat(values, bundle.dimensions) * section.coords)


# -- section-space norm as a search objective --------------------------------


def _atom_norms(bundle: Bundle):
    """Fiber norms of flat sections: ``per_atom(X)`` maps rows ``(m, total)``
    to the ``(atoms, m)`` array of each row's fiber norm at each atom (0 on
    zero-dimensional fibers).

    Each run of adjacent atoms that share a fiber norm (``Bundle._norm_runs``,
    built once per bundle) is evaluated by one ``norm_batch`` call on its
    coordinates as rows ``(m * atoms in the run, dim)``, so a row's norms
    have the same bits alone as inside any batch.
    """
    offsets = bundle.offsets.tolist()
    n_atoms = bundle.space.atom_count
    runs = bundle._norm_runs

    def per_atom(X: np.ndarray) -> np.ndarray:
        out = np.zeros((n_atoms, len(X)))
        for spec, a, b in runs:
            rows = X[:, offsets[a] : offsets[b]].reshape(-1, spec.dimension)
            out[a:b] = spec.norm_batch(rows).reshape(len(X), b - a).T
        return out

    return per_atom


def _lp_columns(per_atom: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Weighted L^p norm over axis 0 of an ``(atoms, ...)`` array of fiber
    norms, for ``weights`` of shape ``(atoms, 1, ...)`` that broadcasts
    against it.

    The sum adds the rows in order across contiguous columns, never along a
    short last axis (see ``bundlelab.norms``).  With 8 or more atoms it adds
    sequentially rather than by numpy's pairwise unrolling, so its last bits
    can differ from a row-major sum.
    """
    if p == math.inf:
        return np.maximum.reduce(per_atom, axis=0, initial=0.0)
    return _sum_columns(weights * per_atom**p) ** (1.0 / p)


def _section_lp_rows(bundle: Bundle, X: np.ndarray, p) -> np.ndarray:
    """Section-space norms at exponent ``p`` of the flat rows ``X``, shape
    ``(n, total)``, by the section evaluator's own route (``_atom_norms``
    and ``_lp_columns``); a row's norm does not depend on its batch."""
    return _lp_columns(_atom_norms(bundle)(X), bundle.space.weights[:, None],
                       float(as_exponent(p)))


def _section_norms(bundle: Bundle, exponents):
    """Section-space norms of one bundle at several exponents, as a
    ``SearchGroup`` evaluator: ``evaluate(A, counts)`` takes a block ``A``
    of shape ``(k, lanes, total)`` and gives the ``(k, lanes)`` norms of the
    first ``counts[0]`` lanes at ``exponents[0]``, the next ``counts[1]`` at
    ``exponents[1]``, and so on.  The fiber norms of all rows come from one
    ``_atom_norms`` call on the block's rows (copied once if the block is not
    contiguous); each exponent then reads its own lane columns.
    """
    powers = [float(as_exponent(p)) for p in exponents]
    per_atom = _atom_norms(bundle)
    weights = bundle.space.weights[:, None, None]

    def evaluate(A: np.ndarray, counts) -> np.ndarray:
        k, lanes, total = A.shape
        norms = per_atom(A.reshape(-1, total)).reshape(-1, k, lanes)
        out = np.empty((k, lanes))
        start = 0
        for pf, count in zip(powers, counts):
            if count:
                out[:, start : start + count] = _lp_columns(
                    norms[:, :, start : start + count], weights, pf)
            start += count
        return out

    return evaluate


def section_modulus_curves(
    bundles: Sequence[Bundle],
    exponents,
    eps_grid=None,
    budget: SearchBudget | None = None,
    fiber_budget: SearchBudget | None = None,
) -> list:
    """Modulus curves of the section spaces of several bundles, one list of
    curves (one per exponent) per bundle.

    The fiber curves come first, from one ``modulus_curves`` call under
    ``fiber_budget`` (default ``budget``) that searches each distinct fiber
    norm once; then every (bundle, exponent) search runs in one kernel call,
    where each bundle's exponents share its fiber norm evaluations.  Every
    curve of a bundle holds that bundle's fiber curves in
    ``meta["fiber_curves"]``, one per positive-dimensional fiber in atom
    order.  Each curve equals the one this function gives for its bundle
    and exponent alone.
    """
    eps = check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    budget = budget or DEFAULT_BUDGET
    if any(b.total_dimension == 0 for b in bundles):
        raise ValueError("modulus of a degenerate bundle's section space is undefined")
    exponents = [as_exponent(p) for p in exponents]
    specs = [f.norm for b in bundles for f in b.fibers if f.dimension > 0]
    fiber_curves = iter(modulus_curves(specs, eps, fiber_budget or budget))
    groups, metas = [], []
    for bundle in bundles:
        total, offsets = bundle.total_dimension, bundle.offsets
        atoms = [x for x, f in enumerate(bundle.fibers) if f.dimension > 0]
        own = [next(fiber_curves) for _ in atoms]
        metas.append([{"section_space": True, "p": float(p) if p != math.inf else "inf",
                       "fiber_curves": own} for p in exponents])
        searches = []
        for p in exponents:
            norm_batch = functools.partial(_section_lp_rows, bundle, p=p)
            # single-atom lifts of each fiber's witness pairs: a pair supported
            # on one atom has the same separation, unit norms and midpoint gap
            # as its fiber pair, so these lifts keep the estimate on the
            # correct side of the fiber floor
            lifts = np.zeros((len(eps), len(atoms), 2, total))
            for k, (x, curve) in enumerate(zip(atoms, own)):
                scale = 1.0 if p == math.inf else bundle.space.weights[x] ** (-1.0 / float(p))
                lifts[:, k, :, offsets[x] : offsets[x + 1]] = curve.witnesses * scale
            # trim the quadratically-many axis pairs: the leading block already
            # covers every cross-atom pair through the first axis, and the
            # witness lifts are the load-bearing starts here
            pairs = structured_pairs_for_fn(norm_batch, total, max(12, 3 * total))
            # each eps starts from the structured pairs, then from its lifts
            pairs = np.broadcast_to(pairs, (len(eps),) + pairs.shape)
            searches.append(np.concatenate([pairs, lifts], axis=1))
        groups.append(SearchGroup(_section_norms(bundle, exponents), searches))
    # eps_values and budget by keyword: perfbench/tracer.py reads them by name
    results = iter(pair_search(groups, eps_values=eps, budget=budget))
    return [[curve_from_search(eps, budget, next(results), meta) for meta in per_bundle]
            for per_bundle in metas]


def section_modulus_curve(
    bundle: Bundle,
    p,
    eps_grid=None,
    budget: SearchBudget | None = None,
) -> ModulusCurve:
    """Modulus curve of the section-space norm for exponent p.

    The start set mixes dense sphere samples, flat-coordinate structured
    pairs, and single-atom lifts of each fiber's own witness pairs; the
    fiber curves are kept in ``meta["fiber_curves"]`` (see
    ``section_modulus_curves``).
    """
    return section_modulus_curves([bundle], [p], eps_grid, budget)[0][0]


def parallelogram_residual(v: Section, w: Section) -> float:
    """Integrated parallelogram residual in the p = 2 section norm, from one
    ``_section_lp_rows`` call on the rows v + w, v - w, v and w."""
    _same_bundle(v.bundle, w.bundle, "sections live on different bundles")
    splus, sminus, nv, nw = _section_lp_rows(
        v.bundle, np.stack([v.coords + w.coords, v.coords - w.coords, v.coords, w.coords]), 2)
    return float(abs(splus**2 + sminus**2 - 2.0 * nv**2 - 2.0 * nw**2))
