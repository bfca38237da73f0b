"""Norm kinds on finite-dimensional real fibers.

Four concrete kinds share one interface:

* ``InnerProductNorm``: sqrt(v' G v) for a symmetric positive definite G.
* ``WeightedLpNorm``: weighted l^r norm, r in [1, inf].
* ``PolyhedralMaxNorm``: max_i |<a_i, v>| over a spanning functional list.
* ``PolytopeGaugeNorm``: Minkowski gauge of a symmetric spanning polytope.

Each kind knows its exact dual (``dual()``), can evaluate batches of
vectors (``norm_batch``), produces a unit-sphere maximizer of any linear
functional (``linear_maximizer``).  All evaluation is pure; instances
are immutable by convention after construction.

Every kind evaluates in closed form.  The two polyhedral kinds are each
other's duals, and each unit ball's vertices are the other's facet
normals: the gauge norm is ``max(F v)`` over the facet matrix ``F`` of
its hull, and the polyhedral maximizer is the best-scoring row of its
dual gauge's ``F``.  ``F`` is enumerated with numpy alone, from the
hyperplanes through d linearly independent vertices, one from each of d
antipodal pairs, and checked at construction against the gauge's defining
linear program solved over its basic solutions.  No library code solves
the LP itself; only the tests' oracle does (``tests/oracles.py``).

Batched kernels are coordinate-major: ``norm_batch`` takes rows of shape
``(..., d)`` but works on the ``(d, m)`` transpose and reduces over axis 0,
so every reduction runs across contiguous rows and never along a short last
axis, which numpy handles slowly.  Reductions over fewer than 8 coordinates
give the same bits either way; sums over 8 or more now add sequentially
instead of by numpy's pairwise unrolling, so their last bits can differ.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from .measure import as_exponent, conjugate_exponent

__all__ = [
    "NormSpec",
    "InnerProductNorm",
    "WeightedLpNorm",
    "PolyhedralMaxNorm",
    "PolytopeGaugeNorm",
    "norm_spec_from_config",
]

#: agreement demanded between the gauge's facet form and its defining LP
GAUGE_SOLVER_TOL = 1e-10

#: largest facet candidate count C(m, d) * 2^d, over m antipodal vertex pairs
#: in dimension d, that a gauge enumerates.  The generators draw at most
#: d + 3 pairs, so a dimension-10 recipe reaches 292,864 candidates; a recipe
#: that could go above the limit is refused when it is read.
MAX_FACET_CANDIDATES = 1 << 19

#: slack of a facet candidate's support test max |<h, a>| <= 1, and of the
#: test that a vertex lies on a facet
_FACET_TOL = 1e-9

#: elements of one block of the support test, bounding its working memory
_SUPPORT_BLOCK = 1 << 20

#: smallest positive normal double; a norm below it has lost precision
_TINY = float(np.finfo(float).tiny)

#: the float64 dtype, a singleton that ``_columns`` compares by identity
_FLOAT = np.dtype(float)


def _sign_nonzero(x: np.ndarray) -> np.ndarray:
    s = np.sign(x)
    s[s == 0.0] = 1.0
    return s


def _columns(V) -> tuple[np.ndarray, tuple | None]:
    """A batch of rows, shape ``(..., d)``, as its ``(d, m)`` transpose.

    Also returns the batch shape ``(...)`` for ``_unbatch``, or ``None`` for
    a 2-D float64 array of two or more rows, which is returned at once as
    its transpose view (the search kernel's hot path).  Any other batch is
    converted and flattened to rows, and a lone row is doubled: numpy hands
    a product with one row or column to BLAS as a matrix-vector product,
    whose last bits differ from the matrix product a batch gets, so beside a
    twin a row's norm does not depend on the size of its batch.
    """
    if type(V) is np.ndarray and V.ndim == 2 and V.dtype is _FLOAT and len(V) >= 2:
        return V.T, None
    V = np.asarray(V, dtype=float)
    rows = V.reshape(-1, V.shape[-1])
    if len(rows) == 1:
        rows = np.repeat(rows, 2, axis=0)
    return rows.T, V.shape[:-1]


def _unbatch(values: np.ndarray, shape: tuple | None):
    # drops the twin of a lone row; [()] turns the 0-d result of a single
    # vector into a scalar
    if shape is None:
        return values
    return values[: math.prod(shape)].reshape(shape)[()]


def _sum_columns(T: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a C-ordered ``(n, ...)`` array, adding its rows
    in order.

    numpy adds the rows one after another when a row has two or more
    entries but sums a single column by its pairwise loop; that column gets
    a twin, so a column's sum has the same bits alone as beside others.
    """
    if T.size == len(T) > 0:
        pair = np.repeat(T.reshape(len(T), 1), 2, axis=1)
        return np.add.reduce(pair, axis=0)[:1].reshape(T.shape[1:])
    return np.add.reduce(T, axis=0)


def _as_matrix(values, name) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a two-dimensional array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class NormSpec:
    """Common interface for the concrete norm kinds."""

    kind: str = "abstract"

    def __init__(self, dimension: int):
        if int(dimension) < 1:
            raise ValueError("norm dimension must be a positive integer")
        self.dimension = int(dimension)
        self._dual = None

    # -- evaluation ------------------------------------------------------

    def norm(self, v) -> float:
        raise NotImplementedError

    def norm_batch(self, V: np.ndarray) -> np.ndarray:
        """Norms of the rows of V, shape (m, dimension) -> (m,)."""
        raise NotImplementedError

    def _check_vec(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"vector of dimension {self.dimension} expected, got shape {arr.shape}"
            )
        return arr

    def unit(self, v) -> np.ndarray:
        """Projection of a nonzero vector onto the unit sphere."""
        arr = self._check_vec(v)
        with np.errstate(over="ignore", under="ignore"):
            n = self.norm(arr)
        if not _TINY <= n < math.inf and np.any(arr) and np.all(np.isfinite(arr)):
            # the norm under- or overflowed; it is positively homogeneous,
            # so normalize the max-abs entry to 1 first
            arr = arr / np.max(np.abs(arr))
            n = self.norm(arr)
        if n <= 0.0:
            raise ValueError("cannot normalize the zero vector")
        u = arr / n
        return u / self.norm(u)

    # -- structure -------------------------------------------------------

    def dual(self) -> "NormSpec":
        if self._dual is None:
            self._dual = self._make_dual()
        return self._dual

    def _make_dual(self) -> "NormSpec":
        raise NotImplementedError

    def linear_maximizer(self, c) -> tuple[float, np.ndarray]:
        """Maximize <c, v> over the unit ball.

        Returns ``(value, witness)`` where the witness lies on the unit
        sphere (within 1e-9) and the value equals the dual norm of ``c``.
        For ``c = 0`` the witness is an arbitrary unit vector.
        """
        raise NotImplementedError

    def _zero_covector_maximizer(self) -> tuple[float, np.ndarray]:
        """``linear_maximizer``'s answer for ``c = 0``: value 0 at the first
        unit coordinate vector."""
        return 0.0, self.unit(np.eye(self.dimension)[0])

    # -- bookkeeping -------------------------------------------------------

    def config_dict(self) -> dict:
        raise NotImplementedError

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(str(self.dimension).encode())
        for part in self._digest_parts():
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        return h.hexdigest()[:12]

    def _digest_parts(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dimension={self.dimension})"


class InnerProductNorm(NormSpec):
    """Norm induced by a symmetric positive definite Gram matrix."""

    kind = "inner_product"

    def __init__(self, gram):
        G = _as_matrix(gram, "gram")
        if G.shape[0] != G.shape[1]:
            raise ValueError("gram matrix must be square")
        super().__init__(G.shape[0])
        if np.max(np.abs(G - G.T)) > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise ValueError("gram matrix must be symmetric positive definite")
        G = 0.5 * (G + G.T)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix must be symmetric positive definite") from None
        self.gram = G
        self._chol = L  # G = L L'

    def norm(self, v) -> float:
        v = self._check_vec(v)
        y = v @ self._chol
        return float(math.sqrt(max(y @ y, 0.0)))

    def norm_batch(self, V) -> np.ndarray:
        VT, shape = _columns(V)
        Y = VT.T @ self._chol
        return _unbatch(np.sqrt(np.maximum(np.einsum("ij,ij->i", Y, Y), 0.0)), shape)

    def _make_dual(self) -> "InnerProductNorm":
        inv = np.linalg.inv(self.gram)
        return InnerProductNorm(0.5 * (inv + inv.T))

    def linear_maximizer(self, c):
        c = self._check_vec(c)
        if not np.any(c):
            return self._zero_covector_maximizer()
        x = np.linalg.solve(self.gram, c)
        if not _TINY <= np.max(np.abs(x)) < math.inf:
            # the solve under- or overflowed; the witness is positively
            # homogeneous in c, so solve for c scaled to max-abs 1
            x = np.linalg.solve(self.gram, c / np.max(np.abs(c)))
        witness = self.unit(x)
        return float(c @ witness), witness

    def config_dict(self):
        return {"kind": self.kind, "gram": self.gram.tolist()}

    def _digest_parts(self):
        return [self.gram]


class WeightedLpNorm(NormSpec):
    """Weighted l^r norm: (sum_i d_i |v_i|^r)^(1/r), max_i d_i |v_i| for r = inf."""

    kind = "weighted_lp"

    def __init__(self, r, weights):
        d = np.asarray(weights, dtype=float)
        if d.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        super().__init__(len(d))
        if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        self.r = as_exponent(r)
        self.weights = d
        # cached dispatch flags: Fraction comparisons are too slow for the
        # batch-norm hot path
        self._r_is_inf = self.r == math.inf
        self._rf = math.inf if self._r_is_inf else float(self.r)

    def norm(self, v) -> float:
        v = self._check_vec(v)
        if self._r_is_inf:
            return float(np.max(self.weights * np.abs(v)))
        rf = self._rf
        return float(np.sum(self.weights * np.abs(v) ** rf, axis=-1) ** (1.0 / rf))

    def norm_batch(self, V) -> np.ndarray:
        VT, shape = _columns(V)
        # a C-ordered copy: numpy would keep VT's row-major memory layout
        A = np.abs(VT, order="C")
        w = self.weights[:, None]
        if self._r_is_inf:
            return _unbatch(np.maximum.reduce(w * A, axis=0), shape)
        rf = self._rf
        return _unbatch(_sum_columns(w * A**rf) ** (1.0 / rf), shape)

    def _make_dual(self) -> "WeightedLpNorm":
        if self.r == math.inf:
            return WeightedLpNorm(1, 1.0 / self.weights)
        if self.r == 1:
            return WeightedLpNorm(math.inf, 1.0 / self.weights)
        rq = conjugate_exponent(self.r)
        return WeightedLpNorm(rq, self.weights ** (1.0 - float(rq)))

    def linear_maximizer(self, c):
        c = self._check_vec(c)
        if not np.any(c):
            return self._zero_covector_maximizer()
        if self.r == 1:
            j = int(np.argmax(np.abs(c) / self.weights))
            u = np.zeros(self.dimension)
            u[j] = _sign_nonzero(c[j : j + 1])[0] / self.weights[j]
        elif self.r == math.inf:
            u = _sign_nonzero(c) / self.weights
        else:
            # the maximizer is positively homogeneous in c: rescale first so
            # powers of subnormal entries cannot underflow to zero
            a = np.abs(c) / np.max(np.abs(c))
            t = 1.0 / (self._rf - 1.0)
            u = _sign_nonzero(c) * (a / self.weights) ** t
        u = self.unit(u)
        return float(c @ u), u

    def config_dict(self):
        r = "inf" if self.r == math.inf else (
            str(self.r) if isinstance(self.r, Fraction) else float(self.r)
        )
        return {"kind": self.kind, "r": r, "weights": self.weights.tolist()}

    def _digest_parts(self):
        rf = -1.0 if self.r == math.inf else float(self.r)
        return [np.array([rf]), self.weights]


class PolyhedralMaxNorm(NormSpec):
    """Max of absolute values of finitely many spanning linear functionals."""

    kind = "polyhedral_max"

    def __init__(self, functionals):
        A = _as_matrix(functionals, "functionals")
        super().__init__(A.shape[1])
        if np.linalg.matrix_rank(A) < self.dimension:
            raise ValueError("functionals must span the dual space")
        self.functionals = A

    def norm(self, v) -> float:
        v = self._check_vec(v)
        return float(np.max(np.abs(self.functionals @ v)))

    def norm_batch(self, V) -> np.ndarray:
        VT, shape = _columns(V)
        return _unbatch(np.maximum.reduce(np.abs(self.functionals @ VT), axis=0), shape)

    def _make_dual(self) -> "PolytopeGaugeNorm":
        return PolytopeGaugeNorm(np.vstack([self.functionals, -self.functionals]))

    def linear_maximizer(self, c):
        c = self._check_vec(c)
        if not np.any(c):
            return self._zero_covector_maximizer()
        # the facet normals of conv(+-A), held by the dual gauge, are the
        # vertices of the unit ball {v : |A v| <= 1}
        F = self.dual()._facets
        u = self.unit(F[int(np.argmax(F @ c))])
        return float(c @ u), u

    def config_dict(self):
        return {"kind": self.kind, "functionals": self.functionals.tolist()}

    def _digest_parts(self):
        return [self.functionals]


# No library code calls this.  ``perfbench/tracer.py`` reads ``norms.linprog``
# by attribute on every traced run, so it stays until the tracer drops that
# lookup; then it goes too.
def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def check_facet_candidates(pairs: int, dim: int) -> None:
    """Raise ``ValueError`` when a polytope of ``pairs`` antipodal vertex
    pairs in dimension ``dim`` has more facet candidates, C(pairs, dim)
    bases times 2^dim sign patterns, than ``MAX_FACET_CANDIDATES``."""
    count = math.comb(pairs, dim) * 2**dim
    if count > MAX_FACET_CANDIDATES:
        raise ValueError(
            f"a polytope of {pairs} antipodal vertex pairs in dimension {dim} needs {count} "
            f"facet candidates (C({pairs}, {dim}) bases x 2^{dim} sign patterns), above the "
            f"limit of {MAX_FACET_CANDIDATES}"
        )


def _pair_tol(V: np.ndarray) -> float:
    """Distance within which two rows of ``V`` count as the same vertex."""
    return 1e-9 * max(1.0, float(np.max(np.abs(V))))


def _antipodal_pairs(V: np.ndarray) -> np.ndarray:
    """One row per antipodal pair {h, -h} of a symmetric vertex list, in
    the order of first appearance.

    Raises if a row has no antipode.  Rows within 1e-9 (relative to the
    largest entry) of an earlier row or of its negation join that row's
    pair; rows at the origin lie inside the hull and are dropped.
    """
    tol = _pair_tol(V)
    pairs = []
    paired = np.zeros(len(V), dtype=bool)
    for i, row in enumerate(V):
        antipodes = np.max(np.abs(V + row), axis=1) <= tol
        if not np.any(antipodes):
            raise ValueError("vertex list must be symmetric (closed under negation)")
        if not paired[i] and np.max(np.abs(row)) > tol:
            pairs.append(row)
            paired |= antipodes | (np.max(np.abs(V - row), axis=1) <= tol)
    return np.array(pairs)


def _gauge_bases(H: np.ndarray) -> np.ndarray:
    """The linearly independent d-subsets of the pair rows ``H``, stacked
    ``(k, d, d)`` in lexicographic order of the subsets.

    Raises ``ValueError`` (``check_facet_candidates``) before allocating
    anything when the facet candidates are too many.
    """
    m, d = H.shape
    check_facet_candidates(m, d)
    B = H[np.array(list(itertools.combinations(range(m), d)))]
    return B[np.linalg.matrix_rank(B) == d]


def _gauge_facets(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Facet normals ``a`` (facets ``<a, x> = 1``) of conv(+-H), from the
    independent bases ``B`` of ``_gauge_bases``.

    For each basis and each sign pattern s, the hyperplane through the
    vertices s_k h_k solves ``B a = s``; it bounds a facet when no vertex
    lies beyond it, ``max |H a| <= 1``.  A facet of a non-simplicial
    polytope comes from several bases; the first candidate with each set
    of (signed) vertices on it is kept.  Candidates run basis by basis, and
    within a basis over the sign patterns in ``itertools.product((1, -1),
    repeat=d)`` order, so the row order is fixed by ``H`` alone.
    """
    k, d = len(B), H.shape[1]
    h = 2 ** (d - 1)
    # the patterns with s_1 = +1; those with s_1 = -1 are their negations,
    # in reverse order, and negating the right side negates the solution
    bits = (np.arange(h)[:, None] >> np.arange(d - 2, -1, -1)) & 1
    half = np.hstack([np.ones((h, 1)), 1.0 - 2.0 * bits])
    # a (1, d, h) right side: a stack of matrices under every numpy version
    A = np.swapaxes(np.linalg.solve(B, half.T[None]), 1, 2).reshape(-1, d)
    blocks = np.array_split(A, max(1, -(-len(A) * len(H) // _SUPPORT_BLOCK)))
    keep = np.concatenate([np.max(np.abs(a @ H.T), axis=1) <= 1.0 + _FACET_TOL
                           for a in blocks]).reshape(k, h)
    # -a passes the test exactly when a does
    b, j = np.nonzero(np.hstack([keep, keep[:, ::-1]]))
    negated = j >= h
    A = A.reshape(k, h, d)[b, np.where(negated, 2 * h - 1 - j, j)]
    A[negated] *= -1.0
    HA = A @ H.T
    on_facet = (HA >= 1.0 - _FACET_TOL).astype(np.int8) - (HA <= _FACET_TOL - 1.0)
    _, first = np.unique(on_facet, axis=0, return_index=True)
    return A[np.sort(first)]


class PolytopeGaugeNorm(NormSpec):
    """Minkowski gauge of the convex hull of a symmetric spanning vertex list.

    ``norm`` and ``norm_batch`` evaluate the exact facet form
    ``max(F v)``, with the facet matrix ``F`` enumerated at construction
    (``_gauge_facets``).  The construction cross-check compares that form
    on 8 probes, to ``GAUGE_SOLVER_TOL``, with the optimum of the defining
    linear program over its basic solutions.  Both routes start from the
    same antipodal pairs and bases, but solve their own systems; a vertex
    lost while pairing is caught by the listed vertices, each of which must
    have gauge at most 1 under the facet form.  The LP itself (minimal
    t >= 0 with v inside t times the hull) is solved only by the tests'
    oracle, ``tests/oracles.py``.
    """

    kind = "polytope_gauge"

    def __init__(self, vertices):
        V = _as_matrix(vertices, "vertices")
        super().__init__(V.shape[1])
        if np.linalg.matrix_rank(V) < self.dimension:
            raise ValueError("vertices must span the space")
        pairs = _antipodal_pairs(V)
        self.vertices = V
        self._bases = _gauge_bases(pairs)
        self._facets = _gauge_facets(pairs, self._bases)
        # Gauge of each listed vertex (1 for true extreme points).
        self._vertex_gauges = np.max(V @ self._facets.T, axis=1)
        self._cross_check()

    def _cross_check(self, probes: int = 8, seed: int = 7) -> None:
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((probes, self.dimension))
        # the LP's optimum is attained at a basic solution: p = sum_k l_k h_k
        # over the d pair rows h_k of one basis, with cost sum_k |l_k|
        lam = np.linalg.solve(np.swapaxes(self._bases, 1, 2), P.T[None])
        basic_vals = np.min(np.sum(np.abs(lam), axis=1), axis=0)
        facet_vals = self.norm_batch(P)
        gap = np.max(np.abs(basic_vals - facet_vals))
        if gap > GAUGE_SOLVER_TOL * max(1.0, float(np.max(facet_vals))):
            raise AssertionError(
                f"gauge evaluation routes disagree by {gap:.2e} "
                f"(basic solutions of the linear program vs facet form)"
            )
        # a listed vertex may sit off its pair's row by the pairing tolerance
        slack = _FACET_TOL + float(np.max(np.sum(np.abs(self._facets), axis=1))) * _pair_tol(
            self.vertices)
        worst = float(np.max(self._vertex_gauges))
        if worst > 1.0 + slack:
            raise AssertionError(
                f"a listed vertex has gauge {worst!r} under the facet form, "
                f"which misses part of the hull"
            )

    def norm(self, v) -> float:
        v = self._check_vec(v)
        return float(np.max(self._facets @ v))

    def norm_batch(self, V) -> np.ndarray:
        VT, shape = _columns(V)
        return _unbatch(np.maximum.reduce(self._facets @ VT, axis=0), shape)

    def _make_dual(self) -> "PolyhedralMaxNorm":
        return PolyhedralMaxNorm(self.vertices)

    def linear_maximizer(self, c):
        c = self._check_vec(c)
        if not np.any(c):
            return self._zero_covector_maximizer()
        scores = (self.vertices @ c) / self._vertex_gauges
        j = int(np.argmax(scores))
        u = self.vertices[j] / self._vertex_gauges[j]
        u = u / self.norm_batch(u[None, :])[0]
        return float(c @ u), u

    def config_dict(self):
        return {"kind": self.kind, "vertices": self.vertices.tolist()}

    def _digest_parts(self):
        return [self.vertices]


def _polyhedral_from_config(cfg) -> PolyhedralMaxNorm:
    spec = PolyhedralMaxNorm(cfg["functionals"])
    # the dual gauge is built on first use, from at most one pair per row;
    # a config it would refuse is refused here, while it is read
    check_facet_candidates(*spec.functionals.shape)
    return spec


_KINDS = {
    "inner_product": lambda cfg: InnerProductNorm(cfg["gram"]),
    "weighted_lp": lambda cfg: WeightedLpNorm(cfg["r"], cfg["weights"]),
    "polyhedral_max": _polyhedral_from_config,
    "polytope_gauge": lambda cfg: PolytopeGaugeNorm(cfg["vertices"]),
}


def norm_spec_from_config(cfg: dict) -> NormSpec:
    """Rebuild a norm kind from its ``config_dict`` representation."""
    try:
        kind = cfg["kind"]
    except (TypeError, KeyError):
        raise ValueError("norm config must be a mapping with a 'kind' entry") from None
    if kind not in _KINDS:
        raise ValueError(f"unknown norm kind: {kind!r}")
    try:
        return _KINDS[kind](cfg)
    except KeyError as exc:
        raise ValueError(f"norm config for kind {kind!r} is missing field {exc}") from None
