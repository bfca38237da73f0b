"""When does an abstract section-space norm come from a pointwise norm?

The checks here probe two structural conditions on a candidate norm over a
bundle's sections:

* restriction additivity: the p-th power of the norm splits additively
  across complementary atom subsets;
* weak-star continuity: multiplying by a bounded, atomwise-vanishing
  sequence of scalar fields drives the norm to zero.

Norms passing the first condition define an additive set function whose
density recovers a pointwise norm; :func:`reconstruct_pointwise_norm`
computes it and the tests round-trip it against the inducing norm.  A
small lemma about power inequalities between measures and their densities
is checked exhaustively by :func:`measure_inequality_report`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bundles import Bundle, Section, _atom_norms, _lp_columns, _same_bundle, random_section
from .measure import MeasureSpace, ScalarField, as_exponent

__all__ = [
    "AbstractModuleNorm",
    "induced_norm",
    "sup_over_atoms_norm",
    "mixed_sum_norm",
    "mixed_max_norm",
    "AdditivityReport",
    "restriction_additivity_check",
    "ContinuityReport",
    "weak_star_continuity_check",
    "reconstruct_pointwise_norm",
    "AtomicMeasureTriple",
    "MeasureInequalityReport",
    "measure_inequality_report",
    "subset_sums",
]

ADDITIVITY_TOL = 1e-9
CONTINUITY_TOL = 1e-6
#: largest gap between a reconstructed pointwise norm and the inducing one
RECONSTRUCTION_TOL = 1e-9
ENUMERATION_CAP = 16
SAMPLED_SUBSETS = 4096
#: random section pairs of ``AbstractModuleNorm.check_axioms``
AXIOM_PROBES = 8
_AXIOM_TOL = 1e-9
_INEQUALITY_TOL = 1e-12
#: (probe, subset) pairs per ``evaluate_rows`` call of the additivity check.
#: Full enumeration at 16 atoms (2-3 dimensional fibers of all four kinds,
#: 8 probes, one BLAS thread, 2-vCPU VM), median of 5: 256 pairs 1.28 s,
#: 512 0.82 s, 1024 0.92 s, 2048 0.90 s, 4096 0.80 s (peak RSS +3 MiB over
#: 1024), 8192 0.89 s.  Past 512 the time is flat and only memory grows.
_MASK_CHUNK = 1024


class AbstractModuleNorm:
    """A candidate norm on the sections of a bundle, given as a callable on
    flat coordinate rows: ``fn(X)`` maps ``(m, total)`` rows to ``(m,)``
    norms, row ``i`` being the section ``Section.from_coords(bundle, X[i])``.
    """

    def __init__(self, bundle: Bundle, fn: Callable[[np.ndarray], np.ndarray], name: str):
        self.bundle = bundle
        self._fn = fn
        self.name = name

    def evaluate_rows(self, X: np.ndarray) -> np.ndarray:
        """Norms of the sections whose flat coordinates are the rows of X."""
        values = np.asarray(self._fn(X), dtype=float)
        if values.shape != (len(X),):
            raise ValueError(f"{self.name}: {len(X)} rows gave norms of shape {values.shape}")
        return values

    def evaluate(self, section: Section) -> float:
        """Norm of one section: the one-row case of ``evaluate_rows``."""
        _same_bundle(section.bundle, self.bundle, "section does not live on this norm's bundle")
        return float(self.evaluate_rows(section.coords[None, :])[0])

    def check_axioms(self, seed: int = 0):
        """Randomized spot check of norm axioms on ``AXIOM_PROBES`` section
        pairs; raises AssertionError on failure."""
        rng = np.random.default_rng(seed)
        if self.bundle.total_dimension == 0:
            return
        for _ in range(AXIOM_PROBES):
            v = random_section(self.bundle, rng)
            w = random_section(self.bundle, rng)
            t = float(rng.uniform(-3.0, 3.0))
            nv, nw = self.evaluate(v), self.evaluate(w)
            if nv <= 0.0:
                raise AssertionError(f"{self.name}: vanishing on a nonzero section")
            if abs(self.evaluate(v.scale(t)) - abs(t) * nv) > _AXIOM_TOL * max(1.0, nv):
                raise AssertionError(f"{self.name}: homogeneity violated")
            if self.evaluate(v + w) > nv + nw + _AXIOM_TOL * max(1.0, nv + nw):
                raise AssertionError(f"{self.name}: triangle inequality violated")

    def __repr__(self):
        return f"AbstractModuleNorm({self.name!r})"


def _catalogue_norm(bundle: Bundle, exponents, name: str, combine=None) -> AbstractModuleNorm:
    """A norm whose rows go through the bundle's fiber norms once; the
    weighted L^p norms of the fiber norms at each of ``exponents`` are
    folded with ``combine`` (e.g. ``np.add``) when there are several."""
    per_atom = _atom_norms(bundle)
    weights = bundle.space.weights[:, None]
    powers = [float(p) for p in exponents]

    def fn(X: np.ndarray) -> np.ndarray:
        norms = per_atom(X)
        return functools.reduce(combine, [_lp_columns(norms, weights, pf) for pf in powers])

    return AbstractModuleNorm(bundle, fn, name)


def induced_norm(bundle: Bundle, p) -> AbstractModuleNorm:
    """The section-space norm induced by the pointwise norm and exponent p."""
    p = as_exponent(p)
    return _catalogue_norm(bundle, [p], f"induced-p{p}")


def sup_over_atoms_norm(bundle: Bundle) -> AbstractModuleNorm:
    """Plain supremum of fiber norms over atoms (ignores the measure)."""
    return _catalogue_norm(bundle, [math.inf], "sup-over-atoms")


def mixed_sum_norm(bundle: Bundle, p1, p2) -> AbstractModuleNorm:
    p1, p2 = as_exponent(p1), as_exponent(p2)
    return _catalogue_norm(bundle, [p1, p2], f"mixed-sum-p{p1}-p{p2}", np.add)


def mixed_max_norm(bundle: Bundle, p1, p2) -> AbstractModuleNorm:
    p1, p2 = as_exponent(p1), as_exponent(p2)
    return _catalogue_norm(bundle, [p1, p2], f"mixed-max-p{p1}-p{p2}", np.maximum)


# -- restriction additivity ---------------------------------------------------


@dataclass
class AdditivityReport:
    norm_name: str
    exponent: float
    passed: bool
    max_residual: float
    witness_probe: int
    witness_subset: tuple
    subsets_checked: int
    enumeration: str


def _finite_exponent(p) -> float:
    """``p`` as a float: the checks here are out of scope at p = inf."""
    p = as_exponent(p)
    if p == math.inf:
        raise ValueError("the sup-exponent analogue of this check is out of scope; use finite p")
    return float(p)


def _subset_masks(atom_count: int, seed: int):
    if atom_count <= ENUMERATION_CAP:
        count = 2**atom_count
        idx = np.arange(count, dtype=np.uint32)
        masks = (idx[:, None] >> np.arange(atom_count)) & 1
        return masks.astype(bool), "full"
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(SAMPLED_SUBSETS, atom_count)).astype(bool)
    return masks, "sampled"


def _probe_rows(norm: AbstractModuleNorm, probes, seed: int) -> np.ndarray:
    """Flat coordinates of the probe sections, one row each, scaled to norm
    1 where the norm is positive; an integer ``probes`` draws that many
    random sections from ``seed``."""
    bundle = norm.bundle
    if isinstance(probes, int):
        rng = np.random.default_rng(seed)
        probes = [random_section(bundle, rng) for _ in range(probes)]
    for v in probes:
        _same_bundle(v.bundle, bundle, "section does not live on this norm's bundle")
    P = np.array([v.coords for v in probes]).reshape(len(probes), bundle.total_dimension)
    totals = norm.evaluate_rows(P)
    positive = totals > 0.0
    P[positive] *= (1.0 / totals[positive])[:, None]
    return P


def restriction_additivity_check(norm: AbstractModuleNorm, p,
                                 probes: int | Sequence[Section] = 8,
                                 seed: int = 0) -> AdditivityReport:
    """Does the p-th power of the norm split across complementary subsets?

    For every probe section v and subset E the residual
    ``| N(1_E v)^p + N(1_{X\\E} v)^p - N(v)^p |`` is evaluated; subsets are
    fully enumerated up to ``ENUMERATION_CAP`` atoms, and beyond it
    ``SAMPLED_SUBSETS`` are drawn deterministically.  Probes are normalized
    so the 1e-9 verdict line is scale-free.  Every masked section goes
    through the norm itself, ``_MASK_CHUNK`` (probe, subset) pairs per
    ``evaluate_rows`` call.  A failing check names the probe and subset of
    the first largest residual in probe-major, subset-minor order; a passing
    one names none (probe -1, empty subset).  A nan residual counts as
    infinite.
    """
    pf = _finite_exponent(p)
    bundle = norm.bundle
    P = _probe_rows(norm, probes, seed)
    totals_p = norm.evaluate_rows(P) ** pf
    masks, enumeration = _subset_masks(bundle.space.atom_count, seed)
    coord_masks = np.repeat(masks, bundle.dimensions, axis=1)
    atoms = np.array(bundle.space.atoms, dtype=object)

    max_res = 0.0
    wit_probe, wit_subset = -1, ()
    pairs = len(P) * len(masks)
    for start in range(0, pairs, _MASK_CHUNK):
        probe, mask = np.divmod(np.arange(start, min(start + _MASK_CHUNK, pairs)), len(masks))
        inside = coord_masks[mask]
        V = P[probe]
        values = norm.evaluate_rows(np.concatenate([inside * V, ~inside * V]))
        inside_p, outside_p = np.split(values**pf, 2)
        res = np.abs(inside_p + outside_p - totals_p[probe])
        res[np.isnan(res)] = math.inf
        top = res.max()
        if top > max_res:
            i = np.flatnonzero(res == top)[0]
            max_res = float(top)
            wit_probe = int(probe[i])
            wit_subset = tuple(atoms[masks[mask[i]]])
    if max_res <= ADDITIVITY_TOL:
        # the argmax among roundoff-level residuals is noise
        wit_probe, wit_subset = -1, ()
    return AdditivityReport(
        norm.name,
        pf,
        max_res <= ADDITIVITY_TOL,
        max_res,
        wit_probe,
        wit_subset,
        pairs,
        enumeration,
    )


# -- weak-star continuity ------------------------------------------------------


#: step of the null sequences at which the continuity check applies them
_HORIZON = 40


def _null_fields(atom_count: int) -> np.ndarray:
    """Step ``_HORIZON`` of three bounded, atomwise vanishing sequences of
    scalar fields, one row each: uniform ``0.5**n``, sign-alternating
    ``(-1)**n 0.5**n`` and the rotating singleton ``0.5**n`` at atom
    ``n mod atom_count``.  Every step is bounded by 1 in absolute value."""
    n = _HORIZON
    fields = np.zeros((3, atom_count))
    fields[0] = 0.5**n
    fields[1] = (-1.0) ** n * 0.5**n
    if atom_count:
        fields[2, n % atom_count] = 0.5**n
    return fields


@dataclass
class ContinuityReport:
    norm_name: str
    passed: bool
    max_limit_proxy: float


def weak_star_continuity_check(
    norm: AbstractModuleNorm,
    probes: int | Sequence[Section] = 6,
    seed: int = 0,
) -> ContinuityReport:
    """Evaluate ``N(f_n . v)`` at step ``_HORIZON`` of the null sequences
    of ``_null_fields``.

    Probes are normalized; the verdict passes when every limit proxy is at
    most 1e-6.
    """
    bundle = norm.bundle
    P = _probe_rows(norm, probes, seed)
    fields = np.repeat(_null_fields(bundle.space.atom_count), bundle.dimensions, axis=1)
    values = norm.evaluate_rows((fields[:, None, :] * P).reshape(-1, bundle.total_dimension))
    worst = float(values.max(initial=0.0))
    return ContinuityReport(norm.name, worst <= CONTINUITY_TOL, worst)


# -- reconstruction ------------------------------------------------------------


def reconstruct_pointwise_norm(norm: AbstractModuleNorm, p, section: Section) -> ScalarField:
    """Recover the pointwise norm of a section from singleton restrictions.

    ``|v|(x) = (N(1_{x} v)^p / w_x)^(1/p)``.  Refuses (with a diagnostic)
    when the singleton restriction masses fail to add up to the p-th power
    of the full norm, i.e. when the norm is not restriction-additive on
    this section.
    """
    pf = _finite_exponent(p)
    bundle = norm.bundle
    weights = bundle.space.weights
    total_p = norm.evaluate(section) ** pf
    singletons = np.repeat(np.eye(bundle.space.atom_count), bundle.dimensions, axis=1)
    masses = norm.evaluate_rows(singletons * section.coords) ** pf
    gap = abs(float(masses.sum()) - total_p)
    if gap > ADDITIVITY_TOL * max(1.0, total_p):
        raise ValueError(
            "pointwise-norm reconstruction refused: singleton restriction masses "
            f"are not additive (gap {gap:.3e}); the norm fails restriction additivity"
        )
    return ScalarField(bundle.space, (masses / weights) ** (1.0 / pf))


# -- measure power inequality ---------------------------------------------------


def subset_sums(masses: np.ndarray) -> np.ndarray:
    """Sums over all subsets; bit i of the index marks atom i's membership."""
    out = np.zeros(1)
    for m in np.asarray(masses, dtype=float):
        out = np.concatenate([out, out + m])
    return out


@dataclass
class AtomicMeasureTriple:
    """Three finite measures given by densities against one atomic base."""

    space: MeasureSpace
    density1: np.ndarray
    density2: np.ndarray
    density3: np.ndarray
    alpha: float

    def __post_init__(self):
        for name in ("density1", "density2", "density3"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.space.atom_count,):
                raise ValueError(f"{name} needs one value per atom")
            if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite and nonnegative")
            setattr(self, name, arr)
        if not (0.0 < float(self.alpha) < math.inf):
            raise ValueError("alpha must be a positive real")
        self.alpha = float(self.alpha)


@dataclass
class MeasureInequalityReport:
    set_level_holds: bool
    density_level_holds: bool
    implication_violated: bool
    max_set_margin: float
    max_density_margin: float
    witness_subset: tuple
    witness_atom: object
    subsets_checked: int


def measure_inequality_report(triple: AtomicMeasureTriple) -> MeasureInequalityReport:
    """Exhaustively test: set-level power inequality implies density-level.

    Set level: ``mu1(E)^a <= mu2(E)^a + mu3(E)^a`` for every subset E (full
    enumeration; at most 20 atoms).  Density level: the same inequality for
    the densities at every atom.  The report flags the (never observed)
    case where the set level holds but the density level fails.
    """
    k = triple.space.atom_count
    if k > 20:
        raise ValueError("full subset enumeration is capped at 20 atoms")
    w = triple.space.weights
    a = triple.alpha
    s1 = subset_sums(triple.density1 * w) ** a
    s2 = subset_sums(triple.density2 * w) ** a
    s3 = subset_sums(triple.density3 * w) ** a
    set_margin = s1 - (s2 + s3)
    scale = max(1.0, float(np.max(s2 + s3))) if len(s2) else 1.0
    j = int(np.argmax(set_margin))
    set_holds = bool(set_margin[j] <= _INEQUALITY_TOL * scale)
    atoms = np.array(triple.space.atoms, dtype=object)
    witness_subset = tuple(atoms[[(j >> i) & 1 == 1 for i in range(k)]])

    d1 = triple.density1**a
    d2 = triple.density2**a + triple.density3**a
    density_margin = d1 - d2
    dscale = max(1.0, float(np.max(d2))) if k else 1.0
    i = int(np.argmax(density_margin)) if k else 0
    density_holds = bool(k == 0 or density_margin[i] <= _INEQUALITY_TOL * dscale)

    return MeasureInequalityReport(
        set_holds,
        density_holds,
        bool(set_holds and not density_holds),
        float(set_margin[j]),
        float(density_margin[i]) if k else 0.0,
        witness_subset,
        atoms[i] if k else None,
        len(s1),
    )
