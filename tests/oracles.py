"""Independent oracles that the tests compare the library's closed forms
with.  No library code calls them, so they live here, not under ``src/``.

* ``maximize_linear_on_sphere``: a derivative-free search for dual and
  operator norms.
* ``gauge_lp_norm``: a polytope gauge from its defining linear program,
  solved by scipy's HiGHS.
* ``single_vector_norm``: one vector's norm by its kind's matrix-vector
  formula.
* ``exponent_norm``: one search's batched norm from a ``SearchGroup``
  evaluator.
* ``section_norm_batch``: the one-exponent section-space norm, as the
  section modulus searches evaluate it.
* ``bidual_pointwise_norm``: a section's fiber norms in the double-dual
  fiber norms, one single-vector ``norm`` call per atom.
* ``antipodal_pairs_row_by_row``: a gauge's vertex pairing, three
  reductions per vertex row.
* ``first_distinct_rows_by_axis_unique``: the facet dedup by numpy's
  row-wise ``unique``.
* ``structured_pairs_by_loops``: a kind's structured start pairs as a list
  of ``(v, w)`` tuples, built by nested loops.
* ``isotonic_clamp_by_loop``: the isotonic clamp of a modulus curve, one
  point at a time from the right.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from bundlelab.bundles import _section_norms
from bundlelab.measure import ScalarField
from bundlelab.convexity import _MAX_EXTRA_PAIRS, SearchBudget, _unit_rows
from bundlelab.norms import PolyhedralMaxNorm, PolytopeGaugeNorm, _pair_tol


def maximize_linear_on_sphere(norm_batch, dim: int, coeffs, budget: SearchBudget | None = None):
    """Multi-start maximization of <c, v> over the unit sphere.

    Derivative-free coordinate ascent with projection, no closed forms
    involved.  A ``pair_search`` objective must map into [0, 1], which for
    <c, v> would take a bound on the very dual norm searched for.
    """
    budget = budget or SearchBudget(restarts=32, iterations=150)
    c = np.asarray(coeffs, dtype=float)
    rng = np.random.default_rng(budget.seed)
    X = rng.standard_normal((budget.restarts, dim))
    X[np.linalg.norm(X, axis=1) < 1e-12] = 1.0
    pts = [row for row in _unit_rows(norm_batch, X)]
    pts.extend(_unit_rows(norm_batch, np.eye(dim)))
    pts.extend(_unit_rows(norm_batch, -np.eye(dim)))
    V = _unit_rows(norm_batch, np.array(pts))
    best = V @ c
    step = np.full(len(V), budget.init_step)
    for _ in range(budget.iterations):
        improved = np.zeros(len(V), dtype=bool)
        for i in range(dim):
            for sgn in (1.0, -1.0):
                cand = V.copy()
                cand[:, i] += sgn * step
                nc = norm_batch(cand)
                ok = nc > 1e-12
                cand = cand / np.where(ok, nc, 1.0)[:, None]
                cand[~ok] = V[~ok]
                val = cand @ c
                acc = ok & (val > best)
                if np.any(acc):
                    V[acc] = cand[acc]
                    best[acc] = val[acc]
                    improved |= acc
        step[~improved] *= 0.5
        if np.all(step < budget.min_step):
            break
    j = int(np.argmax(best))
    return float(best[j]), V[j].copy()


def gauge_lp_norm(gauge, P):
    """Gauges under a ``PolytopeGaugeNorm`` of the rows of ``P``, shape
    ``(..., d)`` -> ``(...)``, from the defining LP: the minimal t >= 0 with
    the row inside t times the hull.  A single ``(d,)`` vector gives a scalar.

    All rows are solved as one block-diagonal LP: minimize the sum of
    ``1' lam_k`` subject to ``V' lam_k = p_k``, ``lam_k >= 0``.  The blocks
    share no variable, so each block of the optimum is optimal for its own
    row, and a row's gauge is the sum of its block.
    """
    P = np.asarray(P, dtype=float)
    rows = P.reshape(-1, gauge.dimension)
    m, k = len(rows), gauge.vertices.shape[0]
    res = linprog(
        np.ones(m * k),
        A_eq=np.kron(np.eye(m), gauge.vertices.T),
        b_eq=rows.ravel(),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"gauge LP failed with status {res.status}")
    return res.x.reshape(m, k).sum(axis=1).reshape(P.shape[:-1])[()]


def single_vector_norm(spec, v) -> float:
    """The norm of one vector ``(d,)`` under a norm kind, by that kind's own
    matrix-vector formula rather than its batched kernel; the gauge by its
    full facet form ``max(F v)``."""
    v = np.asarray(v, dtype=float)
    if spec.kind == "inner_product":
        y = v @ spec._chol
        return float(math.sqrt(max(y @ y, 0.0)))
    if spec.kind == "weighted_lp":
        if spec.r == math.inf:
            return float(np.max(spec.weights * np.abs(v)))
        rf = float(spec.r)
        return float(np.sum(spec.weights * np.abs(v) ** rf) ** (1.0 / rf))
    if spec.kind == "polyhedral_max":
        return float(np.max(np.abs(spec.functionals @ v)))
    return float(np.max(spec._facets @ v))


def exponent_norm(evaluate, j: int, n: int):
    """The batched norm, rows ``(m, total)`` to ``(m,)``, of the ``j``-th of
    ``n`` searches of a ``SearchGroup`` evaluator ``evaluate(A, counts)``."""

    def norm_batch(X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        counts = [0] * n
        counts[j] = len(X)
        return evaluate(X[None], counts)[0]

    return norm_batch


def section_norm_batch(bundle, p):
    """The section-space norm at exponent ``p`` on flat coordinates, rows
    ``(m, total)`` to ``(m,)``: the one-exponent case of the evaluator that
    the section modulus searches use."""
    return exponent_norm(_section_norms(bundle, [p]), 0, 1)


def bidual_pointwise_norm(v):
    """Norm of each fiber vector of the section ``v`` measured in the
    double-dual fiber norm, built honestly as the dual of the dual kind (0 on
    zero-dimensional fibers)."""
    values = [f.norm.dual().dual().norm(u) if f.dimension else 0.0
              for f, u in zip(v.bundle.fibers, v.vectors)]
    return ScalarField(v.bundle.space, values)


def antipodal_pairs_row_by_row(V):
    """``norms._antipodal_pairs`` one vertex row at a time: the row's
    distances to every row and to every row's negation, then the row is
    kept unless an earlier kept row has joined it."""
    tol = _pair_tol(V)
    pairs = []
    paired = np.zeros(len(V), dtype=bool)
    for i, row in enumerate(V):
        antipodes = np.max(np.abs(V + row), axis=1) <= tol
        if not np.any(antipodes):
            raise ValueError("vertex list must be symmetric (closed under negation)")
        if not paired[i] and np.any(row):
            pairs.append(row)
            paired |= antipodes | (np.max(np.abs(V - row), axis=1) <= tol)
    return np.array(pairs)


def first_distinct_rows_by_axis_unique(R):
    """``norms._first_distinct_rows`` by numpy's row-wise ``unique``."""
    _, first = np.unique(R, axis=0, return_index=True)
    return np.sort(first)


def structured_pairs_by_loops(spec) -> list:
    """``convexity.structured_pairs`` as ``(v, w)`` tuples: axis, antipodal
    and Hamming-neighbor sign-pattern pairs (dim <= 6), then the pairs of a
    gauge's vertices or a planar polyhedral kind's unit candidates, each
    pair appended in nested loops and cut at ``_MAX_EXTRA_PAIRS``."""
    dim = spec.dimension

    def axis_and_sign_pairs():
        axes = _unit_rows(spec.norm_batch, np.eye(dim))
        yield axes[0], -axes[0]
        for i in range(dim):
            for j in range(i + 1, dim):
                yield axes[i], axes[j]
                yield axes[i], -axes[j]
        if 2 <= dim <= 6:
            signs = np.array(
                [[1.0 if (s >> k) & 1 else -1.0 for k in range(dim)] for s in range(2**dim)]
            )
            signs = _unit_rows(spec.norm_batch, signs)
            for s in range(2**dim):
                for k in range(dim):
                    t = s ^ (1 << k)
                    if s < t:
                        yield signs[s], signs[t]

    pairs = list(itertools.islice(axis_and_sign_pairs(), _MAX_EXTRA_PAIRS))
    verts = None
    if isinstance(spec, PolytopeGaugeNorm):
        verts = spec.vertices
    elif isinstance(spec, PolyhedralMaxNorm) and spec.dimension == 2:
        verts = spec._candidates
    if verts is not None and len(verts) >= 2:
        V = _unit_rows(spec.norm_batch, np.asarray(verts, dtype=float))
        for i in range(len(V)):
            for j in range(i + 1, len(V)):
                pairs.append((V[i], V[j]))
                if len(pairs) >= _MAX_EXTRA_PAIRS:
                    return pairs[:_MAX_EXTRA_PAIRS]
    return pairs[:_MAX_EXTRA_PAIRS]


def isotonic_clamp_by_loop(raw, witnesses):
    """``convexity._isotonic_clamp`` one point at a time, from the right: a
    point at or below every later raw value keeps its value and witness,
    any other takes those of the last point kept."""
    clamped = raw.copy()
    wits = list(witnesses)
    best = math.inf
    best_w = None
    for i in reversed(range(len(raw))):
        if raw[i] <= best:
            best = raw[i]
            best_w = wits[i]
        else:
            clamped[i] = best
            wits[i] = best_w
    return clamped, wits
