"""Independent oracles that the tests compare the library's closed forms
with.  No library code calls them, so they live here, not under ``src/``.

* ``maximize_linear_on_sphere``: a derivative-free search for dual and
  operator norms.
* ``gauge_lp_norm``: a polytope gauge from its defining linear program,
  solved by scipy's HiGHS.
* ``section_norm_batch``: the one-exponent section-space norm, as the
  section modulus searches evaluate it.
"""

import numpy as np
from scipy.optimize import linprog

from bundlelab.bundles import _exponent_norm, _section_norms
from bundlelab.convexity import SearchBudget, _unit_rows


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


def section_norm_batch(bundle, p):
    """The section-space norm at exponent ``p`` on flat coordinates, rows
    ``(m, total)`` to ``(m,)``: the one-exponent case of the evaluator that
    the section modulus searches use."""
    return _exponent_norm(_section_norms(bundle, [p]), 0, 1)
