"""Pairings, operator norms and the bidual diagram.

A dual section is a plain :class:`Section` of ``bundle.dual()``: one
covector per atom, measured in the dual fiber norm.  Since
``bundle.dual().dual()`` is ``bundle`` (the fiberwise bidual E** = E), every
section acts on the sections of ``s.bundle.dual()`` by integrating the
pointwise pairing, and each operation below serves both directions.  The
operator norm of such a functional is computed in closed form from a
constructed maximizer (per-atom norming directions with a Holder magnitude
profile) and coincides with the weighted L^q norm of the pointwise-norm
field.

Pairings, maximizers and operator norms are computed on batches of flat
coordinate rows ``(n, total)``, atom by atom (``_pairing_rows``,
``_holder_rows``); ``pairing_field``, ``integrated_pairing``,
``holder_maximizer`` and ``operator_norm`` are their one-row cases, so a
section's values have the same bits alone as in any batch.  The quantities
that dual-check and the duality suite compare (operator norms, L^p and L^q
norms, the maximizers' norms and the integrated pairings) come from one
route, ``_duality_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Bundle, Section, _same_bundle, _section_lp_rows
from .measure import ScalarField, as_exponent, conjugate_exponent
from .norms import _sum_columns

__all__ = [
    "pairing_field",
    "integrated_pairing",
    "holder_maximizer",
    "operator_norm",
    "ReflexivityReport",
    "check_reflexivity_diagram",
]


def _duality_exponent(p):
    p = as_exponent(p)
    pf = math.inf if p == math.inf else float(p)
    if not (1.0 < pf < math.inf):
        raise ValueError("exponent must lie in (1, inf) for duality operations")
    return p


def _pairing_rows(bundle: Bundle, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Atomwise pairings of the flat rows ``A`` and ``B``, shape ``(n,
    total)``, of sections of ``bundle`` and of its dual, in either order: the
    ``(atoms, n)`` array of each row pair's pairing at each atom (0 on
    zero-dimensional fibers).  A row's pairings do not depend on its batch."""
    o = bundle.offsets
    products = np.ascontiguousarray((A * B).T)
    out = np.zeros((bundle.space.atom_count, len(A)))
    for x in np.flatnonzero(bundle.dimensions):
        out[x] = _sum_columns(products[o[x] : o[x + 1]])
    return out


def _integral(space, P: np.ndarray) -> np.ndarray:
    """Integrals against the base measure of the columns of the ``(atoms,
    n)`` array ``P``."""
    return _sum_columns(space.weights[:, None] * P)


def pairing_field(s: Section, t: Section) -> ScalarField:
    """Atomwise pairing <s(x), t(x)> of a section with a section of the dual
    bundle, in either order."""
    _same_bundle(s.bundle, t.bundle, "section and dual section live on different bundles")
    return ScalarField(s.bundle.space,
                       _pairing_rows(s.bundle, s.coords[None], t.coords[None])[:, 0])


def integrated_pairing(s: Section, t: Section) -> float:
    """Integral of the pairing field against the base measure."""
    return float(_integral(s.bundle.space, pairing_field(s, t).values[:, None])[0])


# -- operator norm via the constructed maximizer ----------------------------


def _holder_magnitudes(g: np.ndarray, weights: np.ndarray, t: float) -> np.ndarray:
    """Magnitude profiles c >= 0 maximizing sum(w c g) under sum(w c^t) = 1,
    one per column of the ``(atoms, n)`` array ``g >= 0`` (zero in a column
    where g is zero)."""
    top = np.max(g, axis=0, initial=0.0)
    live = top > 0.0
    # the profile is invariant under positive scaling of g: rescale first so
    # powers of subnormal entries cannot underflow to 0/0
    g = g / np.where(live, top, 1.0)
    tt = t / (t - 1.0)  # conjugate of the constraint exponent
    scale = _sum_columns(weights[:, None] * g**tt) ** (1.0 / t)
    return g ** (tt - 1.0) / np.where(live, scale, 1.0)


def _holder_rows(bundle: Bundle, S: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Holder maximizers and operator norms of the flat rows ``S``, shape
    ``(n, total)``, of sections of ``bundle`` acting on the p-integrable
    sections of ``bundle.dual()``.

    Returns the maximizers as flat rows ``(n, total)`` of ``bundle.dual()``
    and the operator norms ``(n,)``, each norm the integrated pairing of its
    row with its maximizer.  Each atom's fiber maximizers come from one
    ``linear_maximizer_batch`` call for all rows.  A row has the same bits
    alone as in any batch without a twin of its own here: the maximizers
    and every sum (``_sum_columns``) twin a lone row themselves.
    """
    p = _duality_exponent(p)
    target = bundle.dual()
    o = bundle.offsets
    g = np.zeros((bundle.space.atom_count, len(S)))
    M = np.zeros(S.shape)
    for x, f in enumerate(target.fibers):
        if f.dimension:
            values, M[:, o[x] : o[x + 1]] = f.norm.linear_maximizer_batch(S[:, o[x] : o[x + 1]])
            g[x] = np.maximum(values, 0.0)
    c = _holder_magnitudes(g, target.space.weights, float(p))
    M *= np.repeat(c, bundle.dimensions, axis=0).T
    return M, _integral(bundle.space, _pairing_rows(bundle, S, M))


def _duality_rows(bundle: Bundle, omegas: np.ndarray, vs: np.ndarray, p) -> tuple:
    """The duality quantities of the flat rows ``omegas`` of
    ``bundle.dual()`` and ``vs`` of ``bundle``, both ``(n, total)``, with
    ``q`` conjugate to ``p``, each ``(n,)``: the operator norm of each
    omega on the p-integrable sections and its L^q norm, the L^p norm of
    its Holder maximizer, the operator norm of each v on the q-integrable
    dual sections and its L^p norm, and the integrated pairing of each row
    pair.  A row's values do not depend on its batch.
    """
    q = conjugate_exponent(p)
    dual = bundle.dual()
    maximizers, opn = _holder_rows(dual, omegas, p)
    return (opn, _section_lp_rows(dual, omegas, q), _section_lp_rows(bundle, maximizers, p),
            _holder_rows(bundle, vs, q)[1], _section_lp_rows(bundle, vs, p),
            _integral(bundle.space, _pairing_rows(bundle, omegas, vs)))


def holder_maximizer(s: Section, p) -> Section:
    """Unit-norm section of ``s.bundle.dual()`` attaining the operator norm
    of ``s``: the one-row case of ``_holder_rows``.

    At each atom the direction is a vector of norm one in the dual fiber on
    which ``s(x)`` attains its own fiber norm; magnitudes follow the Holder
    profile for the integrability exponent, so the result has section-space
    norm one (when s is nonzero) and pairs with s to exactly the operator
    norm.
    """
    return Section.from_coords(s.bundle.dual(), _holder_rows(s.bundle, s.coords[None], p)[0][0])


def operator_norm(s: Section, p) -> float:
    """Norm of ``s`` acting on the p-integrable sections of ``s.bundle.dual()``:
    the one-row case of ``_holder_rows``.

    Computed as the pairing against the constructed Holder maximizer; by
    the fiberwise attainment and the Holder equality this equals the
    weighted L^q norm of ``pointwise_norm(s)`` (q conjugate to p), which is
    the isometry statement tested by the duality suite.  A dual section
    acts on sections, and through the bidual a section acts on dual
    sections, by the same call.
    """
    return float(_holder_rows(s.bundle, s.coords[None], p)[1][0])


# -- reflexivity diagram ------------------------------------------------------

#: the diagram passes when both pairing routes (and, on constant bundles,
#: the chain through the fixed fiber) agree within PAIRING_TOL and the
#: bidual pointwise norm is within BIDUAL_NORM_TOL of the pointwise norm
PAIRING_TOL = 1e-9
BIDUAL_NORM_TOL = 1e-6
#: dual-check and the duality suite: isometries on random draws hold within SAMPLED_TOL,
#: exact identities (explicit sections, Holder attainment and inequality) within EXACT_TOL
SAMPLED_TOL = 1e-6
EXACT_TOL = 1e-9


@dataclass
class ReflexivityReport:
    """Residuals of the bidual diagram on sampled section/functional pairs."""

    samples: int
    max_pairing_residual: float
    max_bidual_norm_gap: float
    constant_chain_checked: bool
    max_constant_chain_residual: float
    degenerate: bool
    passed: bool
    notes: list = field(default_factory=list)


def check_reflexivity_diagram(
    bundle: Bundle,
    p,
    samples: int = 100,
    seed: int = 0,
) -> ReflexivityReport:
    """Check that evaluating sections on functionals commutes with the
    canonical identifications, and that the fiberwise bidual embedding is
    isometric.

    Functionals are represented by sections of ``bundle.dual()``.  All
    samples are drawn at once, as one flat draw: per sample, a section's
    coordinates, then a functional's.  Route
    one integrates the atomwise pairings (``_pairing_rows``); route two
    evaluates each section on its functional as one flat contraction of the
    coordinate vectors, with each coordinate weighted by its atom, and shares
    no code with route one.  On a constant bundle the chain through the
    shared constant fiber pairs the ``(atoms, d)`` coordinate matrices in one
    contraction against the weights.  The bidual gap compares each atom's
    ``norm_batch`` under ``f.norm.dual().dual()`` with the one under
    ``f.norm``.  For the two polyhedral kinds the bidual is ``f.norm``
    itself, so their gap is 0 by construction.
    """
    p = _duality_exponent(p)
    rng = np.random.default_rng(seed)
    if bundle.degenerate:
        return ReflexivityReport(
            samples, 0.0, 0.0, False, 0.0, True, True,
            ["degenerate bundle: zero-dimensional fibers, diagram holds vacuously"],
        )

    constant = bundle.is_constant
    weights = bundle.space.weights
    draws = rng.standard_normal((samples, 2, bundle.total_dimension))
    V, omega = draws[:, 0], draws[:, 1]
    # route one: functional applied to the section
    lhs = _integral(bundle.space, _pairing_rows(bundle, omega, V))
    # route two: section evaluated on the functional's representative
    rhs = np.einsum("si,si->s", np.repeat(weights, bundle.dimensions) * omega, V)
    max_pair = float(np.max(np.abs(lhs - rhs), initial=0.0))

    max_norm_gap = 0.0
    o = bundle.offsets
    for x, f in enumerate(bundle.fibers):
        if f.dimension:
            X = V[:, o[x] : o[x + 1]]
            gap = np.abs(f.norm.dual().dual().norm_batch(X) - f.norm.norm_batch(X))
            max_norm_gap = max(max_norm_gap, float(np.max(gap, initial=0.0)))

    max_chain = 0.0
    if constant:
        # through the constant fiber: both sections as (atoms, d) matrices
        # over the fixed space, contracted against the weights
        shape = (samples, bundle.space.atom_count, bundle.fibers[0].dimension)
        chain = np.einsum("x,sxi,sxi->s", weights, omega.reshape(shape), V.reshape(shape))
        max_chain = float(np.max(np.abs(chain - lhs), initial=0.0))

    passed = max_pair <= PAIRING_TOL and max_norm_gap <= BIDUAL_NORM_TOL and (
        not constant or max_chain <= PAIRING_TOL
    )
    notes = []
    if constant:
        notes.append("constant bundle: identification through the fixed fiber checked")
    return ReflexivityReport(
        samples, max_pair, max_norm_gap, constant, max_chain, False, passed, notes
    )
