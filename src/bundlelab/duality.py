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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Bundle, Section, _same_bundle, pointwise_norm, random_section
from .measure import ScalarField, as_exponent

__all__ = [
    "pairing_field",
    "integrated_pairing",
    "holder_maximizer",
    "operator_norm",
    "bidual_pointwise_norm",
    "ReflexivityReport",
    "check_reflexivity_diagram",
]


def _duality_exponent(p):
    p = as_exponent(p)
    pf = math.inf if p == math.inf else float(p)
    if not (1.0 < pf < math.inf):
        raise ValueError("exponent must lie in (1, inf) for duality operations")
    return p


def pairing_field(s: Section, t: Section) -> ScalarField:
    """Atomwise pairing <s(x), t(x)> of a section with a section of the dual
    bundle, in either order."""
    _same_bundle(s.bundle, t.bundle, "section and dual section live on different bundles")
    values = np.array(
        [float(np.dot(a, b)) if len(a) else 0.0 for a, b in zip(s.vectors, t.vectors)]
    )
    return ScalarField(s.bundle.space, values)


def integrated_pairing(s: Section, t: Section) -> float:
    """Integral of the pairing field against the base measure."""
    f = pairing_field(s, t)
    return float(np.sum(s.bundle.space.weights * f.values))


# -- operator norm via the constructed maximizer ----------------------------


def _holder_magnitudes(g: np.ndarray, weights: np.ndarray, t: float) -> np.ndarray:
    """Magnitude profile c >= 0 maximizing sum(w c g) under sum(w c^t) = 1."""
    top = float(np.max(g, initial=0.0))
    if top <= 0.0:
        return np.zeros_like(g)
    # the profile is invariant under positive scaling of g: rescale first so
    # powers of subnormal entries cannot underflow to 0/0
    g = g / top
    tt = t / (t - 1.0)  # conjugate of the constraint exponent
    c = g ** (tt - 1.0)
    scale = float(np.sum(weights * g**tt)) ** (1.0 / t)
    return c / scale


def holder_maximizer(s: Section, p) -> Section:
    """Unit-norm section of ``s.bundle.dual()`` attaining the operator norm
    of ``s``.

    At each atom the direction is a vector of norm one in the dual fiber on
    which ``s(x)`` attains its own fiber norm; magnitudes follow the Holder
    profile for the integrability exponent, so the result has section-space
    norm one (when s is nonzero) and pairs with s to exactly the operator
    norm.
    """
    p = _duality_exponent(p)
    target = s.bundle.dual()
    g = np.zeros(target.space.atom_count)
    directions = []
    for x, f in enumerate(target.fibers):
        if f.dimension == 0:
            directions.append(np.zeros(0))
            continue
        value, u = f.norm.linear_maximizer(s.vectors[x])
        g[x] = max(value, 0.0)
        directions.append(u)
    c = _holder_magnitudes(g, target.space.weights, float(p))
    return Section(target, [c[x] * directions[x] for x in range(len(directions))])


def operator_norm(s: Section, p) -> float:
    """Norm of ``s`` acting on the p-integrable sections of ``s.bundle.dual()``.

    Computed as the pairing against the constructed Holder maximizer; by
    the fiberwise attainment and the Holder equality this equals the
    weighted L^q norm of ``pointwise_norm(s)`` (q conjugate to p), which is
    the isometry statement tested by the duality suite.  A dual section
    acts on sections, and through the bidual a section acts on dual
    sections, by the same call.
    """
    return integrated_pairing(s, holder_maximizer(s, p))


def bidual_pointwise_norm(v: Section) -> ScalarField:
    """Norm of each fiber vector measured in the double-dual fiber norm.

    The double dual is constructed honestly (dual of the dual kind), so the
    comparison with :func:`pointwise_norm` is a genuine numeric check of
    the fiberwise embedding being isometric.
    """
    values = np.empty(v.bundle.space.atom_count)
    for x, f in enumerate(v.bundle.fibers):
        if f.dimension == 0:
            values[x] = 0.0
        else:
            values[x] = f.norm.dual().dual().norm(v.vectors[x])
    return ScalarField(v.bundle.space, values)


# -- reflexivity diagram ------------------------------------------------------

#: the diagram passes when both pairing routes (and, on constant bundles,
#: the chain through the fixed fiber) agree within PAIRING_TOL and the
#: bidual pointwise norm is within BIDUAL_NORM_TOL of the pointwise norm
PAIRING_TOL = 1e-9
BIDUAL_NORM_TOL = 1e-6


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

    Functionals are represented by sections of ``bundle.dual()``.  Route
    one integrates the pointwise pairing field (``pairing_field``); route
    two evaluates the section on the functional as one flat contraction of
    the coordinate vectors, with each coordinate weighted by its atom, and
    shares no code with the pairing field.  On a constant bundle the chain
    through the shared constant fiber pairs the ``(atoms, d)`` coordinate
    matrices in one contraction against the weights.
    """
    p = _duality_exponent(p)
    rng = np.random.default_rng(seed)
    if bundle.degenerate:
        return ReflexivityReport(
            samples, 0.0, 0.0, False, 0.0, True, True,
            ["degenerate bundle: zero-dimensional fibers, diagram holds vacuously"],
        )

    max_pair = 0.0
    max_norm_gap = 0.0
    max_chain = 0.0
    constant = bundle.is_constant
    weights = bundle.space.weights
    coord_weights = np.repeat(weights, bundle.dimensions)
    dual = bundle.dual()
    for _ in range(samples):
        v = random_section(bundle, rng)
        omega = random_section(dual, rng)
        # route one: functional applied to the section
        lhs = float(np.sum(weights * pairing_field(omega, v).values))
        # route two: section evaluated on the functional's representative
        rhs = float(np.dot(coord_weights * omega.coords, v.coords))
        max_pair = max(max_pair, abs(lhs - rhs))

        gap = np.max(np.abs(bidual_pointwise_norm(v).values - pointwise_norm(v).values))
        max_norm_gap = max(max_norm_gap, float(gap))

        if constant:
            # through the constant fiber: both sections as (atoms, d)
            # matrices over the fixed space, contracted against the weights
            shape = (bundle.space.atom_count, -1)
            chain = float(np.einsum("x,xi,xi->", weights, omega.coords.reshape(shape),
                                    v.coords.reshape(shape)))
            max_chain = max(max_chain, abs(chain - lhs))

    passed = max_pair <= PAIRING_TOL and max_norm_gap <= BIDUAL_NORM_TOL and (
        not constant or max_chain <= PAIRING_TOL
    )
    notes = []
    if constant:
        notes.append("constant bundle: identification through the fixed fiber checked")
    return ReflexivityReport(
        samples, max_pair, max_norm_gap, constant, max_chain, False, passed, notes
    )
