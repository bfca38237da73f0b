"""Convexity-profile estimation on unit spheres.

The central quantity is the modulus of convexity

    delta(eps) = inf { 1 - ||(v + w)/2||  :  ||v|| = ||w|| = 1, ||v - w|| >= eps }

estimated by multi-start projected coordinate descent with a penalty for
violating the separation constraint.  Every reported value is the
objective at an explicitly feasible witness pair, hence an upper bound on
the true modulus.  The same machinery drives the parallelogram-defect
maximizer and a linear-functional maximizer used as an independent oracle.

All searches are deterministic functions of their budget: starts come from
seeded sphere samples plus structured pairs (axis, sign-pattern, polytope
-vertex and antipodal pairs), and reductions run in fixed lane order.
Restart lanes are vectorized; fanning them out concurrently would commute
with the fixed-order reduction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .norms import NormSpec, PolyhedralMaxNorm, PolytopeGaugeNorm

__all__ = [
    "SearchBudget",
    "ModulusCurve",
    "DEFAULT_EPS_GRID",
    "DEFAULT_BUDGET",
    "DEFECT_BUDGET",
    "modulus_curve",
    "modulus_of_convexity",
    "modulus_curve_for_fn",
    "structured_pairs",
    "structured_pairs_for_fn",
    "parallelogram_defect",
    "maximize_linear_on_sphere",
    "modulus_grid_estimate_2d",
]

#: default separation grid 0.1, 0.2, ..., 2.0
DEFAULT_EPS_GRID = np.round(np.arange(1, 21) * 0.1, 12)

#: witness pairs may undershoot the separation constraint by this much
FEASIBILITY_SLACK = 1e-9

_MAX_EXTRA_PAIRS = 160


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the multi-start searches; fully determines a run."""

    restarts: int = 64
    iterations: int = 200
    seed: int = 0
    init_step: float = 0.25
    min_step: float = 1e-7
    penalty: float = 4.0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"budget {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"budget {name} must be at least {least}, got {value}")
        for name in ("init_step", "min_step", "penalty"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"budget {name} must be a number, got {value!r}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"budget {name} must be finite and positive, got {value}")
        if self.min_step > self.init_step:
            raise ValueError(
                f"budget min_step {self.min_step} exceeds init_step {self.init_step}"
            )

    def key(self):
        return (
            self.restarts,
            self.iterations,
            self.seed,
            self.init_step,
            self.min_step,
            self.penalty,
        )


DEFAULT_BUDGET = SearchBudget()
DEFECT_BUDGET = SearchBudget(restarts=32, iterations=120, init_step=0.35)


@dataclass
class ModulusCurve:
    """Estimated modulus of convexity along a separation grid.

    ``deltas`` is non-decreasing (isotonic clamp: reverse running minimum,
    which preserves the upper-bound property because a witness pair for a
    larger separation is feasible for a smaller one).  The raw per-point
    estimates are kept alongside, and each point carries its witness pair.
    """

    epsilons: np.ndarray
    deltas: np.ndarray
    raw_deltas: np.ndarray
    witnesses: list
    budget: SearchBudget
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.deltas) < 0.0):
            raise AssertionError("modulus curve must be non-decreasing after clamping")


def _check_eps_grid(eps_values) -> np.ndarray:
    eps = np.atleast_1d(np.asarray(eps_values, dtype=float))
    if eps.size == 0:
        raise ValueError("separation grid must be non-empty")
    if np.any(eps <= 0.0) or np.any(eps > 2.0):
        raise ValueError("separations must lie in (0, 2]")
    if np.any(np.diff(eps) <= 0.0):
        raise ValueError("separation grid must be strictly increasing")
    return eps


# -- structured starting pairs --------------------------------------------


def _unit_rows(norm_batch, rows: np.ndarray) -> np.ndarray:
    U = rows / norm_batch(rows)[:, None]
    return U / norm_batch(U)[:, None]


def structured_pairs_for_fn(norm_batch, dim: int) -> list:
    """Deterministic start pairs for a black-box norm: axis, antipodal
    and Hamming-neighbor sign-pattern pairs (the latter for dim <= 6)."""
    axes = _unit_rows(norm_batch, np.eye(dim))
    pairs = [(axes[0], -axes[0])]
    for i in range(dim):
        for j in range(i + 1, dim):
            pairs.append((axes[i], axes[j]))
            pairs.append((axes[i], -axes[j]))
    if 2 <= dim <= 6:
        signs = np.array(
            [[1.0 if (s >> k) & 1 else -1.0 for k in range(dim)] for s in range(2**dim)]
        )
        signs = _unit_rows(norm_batch, signs)
        for s in range(2**dim):
            for k in range(dim):
                t = s ^ (1 << k)
                if s < t:
                    pairs.append((signs[s], signs[t]))
                if len(pairs) >= _MAX_EXTRA_PAIRS:
                    return pairs[:_MAX_EXTRA_PAIRS]
    return pairs[:_MAX_EXTRA_PAIRS]


def structured_pairs(spec: NormSpec) -> list:
    """Structured start pairs for a norm kind, including polytope vertices."""
    pairs = structured_pairs_for_fn(spec.norm_batch, spec.dimension)
    verts = None
    if isinstance(spec, PolytopeGaugeNorm):
        verts = spec.vertices
    elif isinstance(spec, PolyhedralMaxNorm) and spec.dimension == 2:
        verts = _polyhedral_ball_vertices_2d(spec)
    if verts is not None and len(verts) >= 2:
        V = _unit_rows(spec.norm_batch, np.asarray(verts, dtype=float))
        for i in range(len(V)):
            for j in range(i + 1, len(V)):
                pairs.append((V[i], V[j]))
                if len(pairs) >= _MAX_EXTRA_PAIRS:
                    return pairs[:_MAX_EXTRA_PAIRS]
    return pairs[:_MAX_EXTRA_PAIRS]


def _polyhedral_ball_vertices_2d(spec: PolyhedralMaxNorm) -> np.ndarray:
    """Vertices of the planar unit ball {v : max_i |<a_i, v>| <= 1}."""
    A = spec.functionals
    pts = []
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            M = np.array([A[i], A[j]])
            if abs(np.linalg.det(M)) < 1e-12:
                continue
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    x = np.linalg.solve(M, np.array([si, sj]))
                    if abs(spec.norm(x) - 1.0) <= 1e-9:
                        pts.append(x)
    return np.array(pts) if pts else np.empty((0, 2))


# -- core pair search ------------------------------------------------------


def pair_search(
    norm_batch: Callable[[np.ndarray], np.ndarray],
    dim: int,
    eps_values: np.ndarray,
    budget: SearchBudget,
    extra_pairs: Sequence = (),
    extras_by_eps: Sequence[Sequence] | None = None,
):
    """Minimize 1 - ||(v+w)/2|| over separated unit pairs, one value per eps.

    Returns ``(raw_deltas, witnesses)`` where each witness pair satisfies
    ``||v|| = ||w|| = 1`` within 1e-9 and ``||v - w|| >= eps - 1e-9``.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    n_eps = len(eps_values)

    rng = np.random.default_rng(budget.seed)
    X = rng.standard_normal((budget.restarts, dim))
    Y = rng.standard_normal((budget.restarts, dim))
    X[np.linalg.norm(X, axis=1) < 1e-12] = 1.0
    Y[np.linalg.norm(Y, axis=1) < 1e-12] = 1.0
    X = _unit_rows(norm_batch, X)
    Y = _unit_rows(norm_batch, Y)
    # every other restart begins on a guaranteed-feasible antipodal pair
    Y[::2] = -X[::2]

    base = [(X[r], Y[r]) for r in range(budget.restarts)]
    base.extend((np.asarray(v, float), np.asarray(w, float)) for v, w in extra_pairs)

    lane_V, lane_W, lane_eps_idx = [], [], []
    for e in range(n_eps):
        for v, w in base:
            lane_V.append(v)
            lane_W.append(w)
            lane_eps_idx.append(e)
        if extras_by_eps is not None:
            for v, w in extras_by_eps[e]:
                lane_V.append(np.asarray(v, float))
                lane_W.append(np.asarray(w, float))
                lane_eps_idx.append(e)

    V = _unit_rows(norm_batch, np.array(lane_V))
    W = _unit_rows(norm_batch, np.array(lane_W))
    lane_eps_idx = np.array(lane_eps_idx)
    eps_lane = eps_values[lane_eps_idx]
    n_lanes = len(eps_lane)

    step = np.full(n_lanes, budget.init_step)
    rho = budget.penalty

    def evaluate(Vc, Wc):
        mid = norm_batch((Vc + Wc) * 0.5)
        sep = norm_batch(Vc - Wc)
        obj = 1.0 - mid
        pen = obj + rho * np.maximum(0.0, eps_lane - sep)
        return obj, sep, pen

    obj0, sep0, best_pen = evaluate(V, W)
    feas_obj = np.where(sep0 >= eps_lane - FEASIBILITY_SLACK, obj0, np.inf)
    feas_V = V.copy()
    feas_W = W.copy()

    # single-endpoint moves plus joint moves: translating both endpoints
    # keeps the separation while the midpoint slides (escapes stalls against
    # the constraint wall at polygonal corners); opposite-sign moves stretch
    # or shrink the pair.  All eight patterns for one coordinate are stacked
    # into two norm_batch calls (renormalize, evaluate), since call overhead
    # dominates at these array sizes.
    dv_pat = np.array([1.0, -1.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0])
    dw_pat = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    n_pat = len(dv_pat)
    lanes = np.arange(n_lanes)

    for _ in range(budget.iterations):
        improved = np.zeros(n_lanes, dtype=bool)
        for i in range(dim):
            candV = np.broadcast_to(V, (n_pat, n_lanes, dim)).copy()
            candW = np.broadcast_to(W, (n_pat, n_lanes, dim)).copy()
            candV[:, :, i] += dv_pat[:, None] * step[None, :]
            candW[:, :, i] += dw_pat[:, None] * step[None, :]
            nrm = norm_batch(
                np.concatenate([candV, candW]).reshape(2 * n_pat * n_lanes, dim)
            ).reshape(2, n_pat, n_lanes)
            ok = (nrm > 1e-12).all(axis=0)
            candV /= np.where(nrm[0] > 1e-12, nrm[0], 1.0)[:, :, None]
            candW /= np.where(nrm[1] > 1e-12, nrm[1], 1.0)[:, :, None]
            both = norm_batch(
                np.concatenate([(candV + candW) * 0.5, candV - candW]).reshape(
                    2 * n_pat * n_lanes, dim
                )
            ).reshape(2, n_pat, n_lanes)
            obj = 1.0 - both[0]
            sep = both[1]
            pen = np.where(
                ok, obj + rho * np.maximum(0.0, eps_lane[None, :] - sep), np.inf
            )
            # descent acceptance: best improving pattern per lane (fixed
            # tie-break through argmin keeps runs deterministic)
            best_p = np.argmin(pen, axis=0)
            min_pen = pen[best_p, lanes]
            acc = min_pen < best_pen
            if np.any(acc):
                V[acc] = candV[best_p[acc], lanes[acc]]
                W[acc] = candW[best_p[acc], lanes[acc]]
                best_pen[acc] = min_pen[acc]
                improved |= acc
            # feasible incumbent: any candidate meeting the separation may
            # update it, accepted or not
            feas = ok & (sep >= eps_lane[None, :] - FEASIBILITY_SLACK)
            obj_feas = np.where(feas, obj, np.inf)
            best_f = np.argmin(obj_feas, axis=0)
            min_obj = obj_feas[best_f, lanes]
            hit = min_obj < feas_obj
            if np.any(hit):
                feas_obj[hit] = min_obj[hit]
                feas_V[hit] = candV[best_f[hit], lanes[hit]]
                feas_W[hit] = candW[best_f[hit], lanes[hit]]
        step[~improved] *= 0.5
        if np.all(step < budget.min_step):
            break

    # lanes that never produced a feasible pair get repaired by pushing one
    # endpoint toward the antipode of the other (always reaches separation 2)
    broken = np.nonzero(~np.isfinite(feas_obj))[0]
    if len(broken):
        fixed = _repair_separation_batch(
            norm_batch, V[broken], W[broken], eps_lane[broken]
        )
        feas_V[broken] = V[broken]
        feas_W[broken] = fixed
        feas_obj[broken] = 1.0 - norm_batch((V[broken] + fixed) * 0.5)

    raw = np.empty(n_eps)
    witnesses = []
    for e in range(n_eps):
        idx = np.nonzero(lane_eps_idx == e)[0]
        j = idx[int(np.argmin(feas_obj[idx]))]
        raw[e] = min(max(feas_obj[j], 0.0), 1.0)
        witnesses.append((feas_V[j].copy(), feas_W[j].copy()))
    return raw, witnesses


def _repair_separation_batch(norm_batch, V, W, eps):
    """Bisect each w toward the antipode -v until separation >= eps.

    Separation is monotone along the path w -> -v after renormalization
    (it reaches exactly 2 at the endpoint), so the bisection always lands
    on a feasible point; all rows are processed in lockstep.
    """
    n = len(eps)
    lo = np.zeros(n)
    hi = np.ones(n)  # s = 1 is the antipode -v, separation 2
    for _ in range(60):
        s = 0.5 * (lo + hi)
        raw = (1.0 - s)[:, None] * W - s[:, None] * V
        nr = norm_batch(raw)
        degen = nr < 1e-12
        cand = raw / np.where(degen, 1.0, nr)[:, None]
        sep = norm_batch(V - cand)
        good = ~degen & (sep >= eps)
        hi[good] = s[good]
        lo[~good] = s[~good]
    raw = (1.0 - hi)[:, None] * W - hi[:, None] * V
    nr = norm_batch(raw)
    degen = nr < 1e-12
    cand = np.where(degen[:, None], -V, raw / np.where(degen, 1.0, nr)[:, None])
    # second normalization pass squeezes renormalization drift below 1e-12
    return cand / norm_batch(cand)[:, None]


def _isotonic_clamp(raw: np.ndarray, witnesses: list):
    """Reverse running minimum with witness transfer (keeps upper bounds)."""
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


# -- public wrappers -------------------------------------------------------


def modulus_curve_for_fn(
    norm_batch,
    dim: int,
    eps_grid=None,
    budget: SearchBudget | None = None,
    extra_pairs: Sequence = (),
    extras_by_eps=None,
    meta: dict | None = None,
) -> ModulusCurve:
    """Modulus-of-convexity curve for an arbitrary batched norm evaluator."""
    eps = _check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    budget = budget or DEFAULT_BUDGET
    if dim == 0:
        raise ValueError("modulus of a zero-dimensional space is conventional; handled by callers")
    if dim == 1:
        # the unit sphere is a two-point set; the only separated pair is
        # antipodal with midpoint zero, so the modulus is 1 at every eps
        u = _unit_rows(norm_batch, np.ones((1, 1)))[0]
        raw = np.ones(len(eps))
        wits = [(u.copy(), -u.copy()) for _ in eps]
        return ModulusCurve(eps, raw.copy(), raw, wits, budget, dict(meta or {}, dim=1))
    pairs = list(extra_pairs) if extra_pairs else structured_pairs_for_fn(norm_batch, dim)
    raw, wits = pair_search(norm_batch, dim, eps, budget, pairs, extras_by_eps)
    deltas, wits = _isotonic_clamp(raw, wits)
    return ModulusCurve(eps, deltas, raw, wits, budget, dict(meta or {}))


def modulus_curve(spec: NormSpec, eps_grid=None, budget: SearchBudget | None = None) -> ModulusCurve:
    """Modulus-of-convexity curve of a norm kind along a separation grid."""
    curve = modulus_curve_for_fn(
        spec.norm_batch,
        spec.dimension,
        eps_grid,
        budget,
        extra_pairs=structured_pairs(spec) if spec.dimension > 1 else (),
        meta={"kind": spec.kind, "digest": spec.digest()},
    )
    return curve


def modulus_of_convexity(spec: NormSpec, eps: float, budget: SearchBudget | None = None):
    """Single-separation modulus estimate: ``(delta, (v, w))`` witness pair."""
    curve = modulus_curve(spec, [float(eps)], budget)
    return float(curve.deltas[0]), curve.witnesses[0]


def parallelogram_defect(spec: NormSpec, budget: SearchBudget | None = None):
    """Largest found violation of the parallelogram identity on unit pairs.

    Returns ``(defect, (v, w))``; the defect is
    ``| ||v+w||^2 + ||v-w||^2 - 4 |`` maximized over unit pairs.  Inner
    -product kinds give 0 up to roundoff; every other shipped kind has a
    sign-pattern or vertex pair with a macroscopic defect, and those pairs
    are included in the start set.
    """
    budget = budget or DEFECT_BUDGET
    nb = spec.norm_batch
    dim = spec.dimension
    if dim == 1:
        u = spec.unit(np.ones(1))
        return 0.0, (u, -u)

    rng = np.random.default_rng(budget.seed)
    X = _unit_rows(nb, rng.standard_normal((budget.restarts, dim)))
    Y = _unit_rows(nb, rng.standard_normal((budget.restarts, dim)))
    pairs = [(X[r], Y[r]) for r in range(budget.restarts)]
    pairs.extend(structured_pairs(spec))
    V = _unit_rows(nb, np.array([p[0] for p in pairs]))
    W = _unit_rows(nb, np.array([p[1] for p in pairs]))
    n_lanes = len(V)

    def defect(Vc, Wc):
        return np.abs(nb(Vc + Wc) ** 2 + nb(Vc - Wc) ** 2 - 4.0)

    best = defect(V, W)
    step = np.full(n_lanes, budget.init_step)
    for _ in range(budget.iterations):
        improved = np.zeros(n_lanes, dtype=bool)
        for i in range(dim):
            for side in (0, 1):
                for sgn in (1.0, -1.0):
                    src = V if side == 0 else W
                    cand = src.copy()
                    cand[:, i] += sgn * step
                    nc = nb(cand)
                    ok = nc > 1e-12
                    cand = cand / np.where(ok, nc, 1.0)[:, None]
                    cand[~ok] = src[~ok]
                    val = defect(cand, W) if side == 0 else defect(V, cand)
                    acc = ok & (val > best)
                    if np.any(acc):
                        if side == 0:
                            V[acc] = cand[acc]
                        else:
                            W[acc] = cand[acc]
                        best[acc] = val[acc]
                        improved |= acc
        step[~improved] *= 0.5
        if np.all(step < budget.min_step):
            break
    j = int(np.argmax(best))
    return float(best[j]), (V[j].copy(), W[j].copy())


def maximize_linear_on_sphere(
    norm_batch,
    dim: int,
    coeffs,
    budget: SearchBudget | None = None,
    extra_points: Sequence = (),
):
    """Multi-start maximization of <c, v> over the unit sphere.

    Independent oracle for dual norms and operator norms: derivative-free
    coordinate ascent with projection, no closed forms involved.
    """
    budget = budget or SearchBudget(restarts=32, iterations=150)
    c = np.asarray(coeffs, dtype=float)
    rng = np.random.default_rng(budget.seed)
    X = rng.standard_normal((budget.restarts, dim))
    X[np.linalg.norm(X, axis=1) < 1e-12] = 1.0
    pts = [row for row in _unit_rows(norm_batch, X)]
    pts.extend(_unit_rows(norm_batch, np.eye(dim)))
    pts.extend(_unit_rows(norm_batch, -np.eye(dim)))
    for p in extra_points:
        pts.append(np.asarray(p, dtype=float))
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


# -- dense planar grid oracle ----------------------------------------------


def _structural_angles(spec: NormSpec) -> np.ndarray:
    pts = [np.eye(2)[0], np.eye(2)[1]]
    if isinstance(spec, PolytopeGaugeNorm):
        pts.extend(spec.vertices)
    elif isinstance(spec, PolyhedralMaxNorm):
        pts.extend(_polyhedral_ball_vertices_2d(spec))
    angles = np.array([math.atan2(p[1], p[0]) for p in pts if np.any(p)])
    return np.concatenate([angles, angles + math.pi])


def modulus_grid_estimate_2d(
    spec: NormSpec,
    eps_grid=None,
    samples: int = 4096,
    chunk: int = 256,
):
    """Brute-force planar modulus estimate from a dense angle-pair grid.

    Independent of the descent optimizer: enumerates pairs of unit vectors
    from a dense (plus structural) angle set and takes, for each grid
    separation, the smallest midpoint gap among pairs at least that far
    apart.  Only implemented for two-dimensional kinds.
    """
    if spec.dimension != 2:
        raise ValueError("dense grid estimation is only available in dimension 2")
    eps = _check_eps_grid(DEFAULT_EPS_GRID if eps_grid is None else eps_grid)
    base = np.linspace(0.0, 2.0 * math.pi, int(samples), endpoint=False)
    angles = np.concatenate([base, _structural_angles(spec)])
    angles = np.unique(np.round(np.mod(angles, 2.0 * math.pi), 12))
    P = np.column_stack([np.cos(angles), np.sin(angles)])
    P = _unit_rows(spec.norm_batch, P)
    K = len(P)
    best = np.full(len(eps), np.inf)
    for start in range(0, K, chunk):
        block = P[start : start + chunk]
        diff = block[:, None, :] - P[None, :, :]
        flat = diff.reshape(-1, 2)
        sep = spec.norm_batch(flat).reshape(len(block), K)
        mid = spec.norm_batch(((block[:, None, :] + P[None, :, :]) * 0.5).reshape(-1, 2))
        obj = 1.0 - mid.reshape(len(block), K)
        for e, eps_val in enumerate(eps):
            # same feasibility slack as the descent search, so that pairs whose
            # separation equals the threshold exactly (antipodes at 2.0, facet
            # endpoint pairs) are not dropped to roundoff
            mask = sep >= eps_val - FEASIBILITY_SLACK
            if np.any(mask):
                best[e] = min(best[e], float(np.min(obj[mask])))
    best = np.clip(best, 0.0, 1.0)
    # same isotonic clamp as the optimizer curve
    for i in reversed(range(len(best) - 1)):
        best[i] = min(best[i], best[i + 1])
    return eps, best
