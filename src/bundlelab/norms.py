"""Norm kinds on finite-dimensional real fibers.

Four concrete kinds share one interface:

* ``InnerProductNorm``: sqrt(v' G v) for a symmetric positive definite G.
* ``WeightedLpNorm``: weighted l^r norm, r in [1, inf].
* ``PolyhedralMaxNorm``: max_i |<a_i, v>| over a spanning functional list.
* ``PolytopeGaugeNorm``: Minkowski gauge of a symmetric spanning polytope.

Each kind knows its exact dual (``dual()``), can evaluate batches of
vectors (``norm_batch``), and produces unit-sphere maximizers of a batch of
linear functionals (``linear_maximizer_batch``).  ``norm`` and
``linear_maximizer`` are the one-row cases of the batched code, with the
same bits.  All evaluation is pure; instances are immutable by convention
after construction.

Every kind evaluates in closed form.  The two polyhedral kinds are each
other's duals, and each unit ball's vertices are the other's facet
normals.  Both evaluate ``max |A v|`` over the rows of a matrix: the
polyhedral kind over its functionals, the gauge over one facet normal of
each antipodal pair {a, -a} of the facet matrix ``F`` of its hull, which
equals ``max(F v)`` bit for bit.  Both kinds' maximizers pick the
best-scoring of unit candidates computed once per spec: the rows of the
dual gauge's ``F`` for the polyhedral kind, the vertices scaled by their
gauges for the gauge.
``F`` is enumerated with numpy alone, from the hyperplanes through d
linearly independent vertices, one from each of d antipodal pairs, and
checked at construction against the gauge's defining linear program solved
over its basic solutions.  Construction makes no numpy call per vertex
or per candidate beyond the pairing's walk: the vertex pairing compares
all rows through pairwise distance matrices and the facet support test
all candidates, both in blocks of at most ``_SUPPORT_BLOCK`` elements, and
the facets are deduplicated by one unique over their sign rows packed as
byte strings.
No library code solves the LP itself; only the tests' oracle does
(``tests/oracles.py``).

Batched kernels are coordinate-major: ``norm_batch`` takes rows of shape
``(..., d)`` but works on the ``(d, m)`` transpose and reduces over axis 0,
so every reduction runs across contiguous rows and never along a short last
axis, which numpy handles slowly.  Reductions over fewer than 8 coordinates
give the same bits either way; sums over 8 or more now add sequentially
instead of by numpy's pairwise unrolling, so their last bits can differ.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from .measure import _real_array, as_exponent, conjugate_exponent

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

#: seeded standard normal probes on which the gauge's construction
#: cross-check compares its facet form with the LP's basic solutions
_CROSS_CHECK_PROBES = 8
_CROSS_CHECK_SEED = 7

#: slack of a facet candidate's support test max |<h, a>| <= 1, and of the
#: test that a vertex lies on a facet
_FACET_TOL = 1e-9

#: elements of one block of the facet support test and of each pairwise
#: distance matrix of the vertex pairing, bounding their working memory
_SUPPORT_BLOCK = 1 << 20

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


def _max_abs_batch(A: np.ndarray, V) -> np.ndarray:
    """max_i |<a_i, v>| over the rows a_i of A, for each row v of V, shape
    ``(..., d)``: the batched norm of both polyhedral kinds."""
    VT, shape = _columns(V)
    P = A @ VT
    return _unbatch(np.maximum.reduce(np.abs(P, out=P), axis=0), shape)


def _field_json(value):
    """A kind's field as JSON: an array's nested lists, or an exponent as
    ``"inf"``, a ``Fraction``'s string or a float."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value == math.inf:
        return "inf"
    return str(value) if isinstance(value, Fraction) else float(value)


def _field_bytes(value) -> bytes:
    """A kind's field as the float64 bytes of its digest: an array as it is,
    an exponent as one float, -1 for infinity."""
    if not isinstance(value, np.ndarray):
        value = [-1.0 if value == math.inf else float(value)]
    return np.ascontiguousarray(value, dtype=float).tobytes()


class NormSpec:
    """Common interface for the concrete norm kinds."""

    kind: str = "abstract"
    #: the constructor's arguments in order, also the attributes holding them:
    #: ``config_dict``, ``digest`` and ``norm_spec_from_config`` read them
    fields: tuple = ()

    def __init__(self, dimension: int):
        if int(dimension) < 1:
            raise ValueError("norm dimension must be a positive integer")
        self.dimension = int(dimension)
        self._dual = None

    # -- evaluation ------------------------------------------------------

    def norm(self, v) -> float:
        """``norm_batch`` of the one row ``v``, with its bits in any batch."""
        return float(self.norm_batch(self._check_vec(v)))

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

    def _units(self, X: np.ndarray) -> np.ndarray:
        """The nonzero rows of X, shape ``(m, dimension)``, projected onto the
        unit sphere.

        Each row is first scaled by a power of two to a largest entry in
        [0.5, 1): exact, and no norm of a subnormal or huge row under- or
        overflows.  A row's bits do not depend on its batch.
        """
        _, e = np.frexp(np.abs(X).max(axis=1))
        X = np.ldexp(X, -e[:, None])
        U = X / self.norm_batch(X)[:, None]
        return U / self.norm_batch(U)[:, None]

    # -- structure -------------------------------------------------------

    def dual(self) -> "NormSpec":
        if self._dual is None:
            self._dual = self._make_dual()
        return self._dual

    def _make_dual(self) -> "NormSpec":
        raise NotImplementedError

    def linear_maximizer(self, c) -> tuple[float, np.ndarray]:
        """Maximize <c, v> over the unit ball: ``linear_maximizer_batch`` of
        the one row ``c``, as ``(value, witness)``."""
        values, witnesses = self.linear_maximizer_batch(self._check_vec(c)[None])
        return float(values[0]), witnesses[0]

    def linear_maximizer_batch(self, C) -> tuple[np.ndarray, np.ndarray]:
        """Maximize <c, v> over the unit ball for each row c of C, shape
        ``(m, dimension)``.

        Returns ``(values, witnesses)`` of shapes ``(m,)`` and ``(m,
        dimension)``: each witness lies on the unit sphere (within 1e-9) and
        each value, ``<c, witness>``, is the dual norm of ``c``.  A zero row
        has value 0 at the first unit coordinate vector.  The kind's
        ``_witnesses`` sees each row scaled by a power of two to a largest
        entry in [0.5, 1), so subnormal and huge rows neither under- nor
        overflow.  A lone row gets a twin, as in ``_columns``, so every row
        has the same bits alone as in any batch.
        """
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.dimension:
            raise ValueError(
                f"rows of dimension {self.dimension} expected, got shape {C.shape}")
        m = len(C)
        if m == 1:
            C = np.repeat(C, 2, axis=0)
        live = C.any(axis=1)
        _, e = np.frexp(np.abs(C).max(axis=1))
        # zero rows get a stand-in row, and their answer below
        U = self._witnesses(np.where(live[:, None], np.ldexp(C, -e[:, None]), 1.0))
        values = _sum_columns(np.multiply(C.T, U.T, order="C"))
        if not live.all():
            U[~live] = self._units(np.eye(self.dimension)[:1])
            values[~live] = 0.0
        return values[:m], U[:m]

    def _witnesses(self, S: np.ndarray) -> np.ndarray:
        """Unit-sphere maximizers of <s, v> for the nonzero rows s of S, each
        scaled to a largest entry in [0.5, 1).  The polyhedral kinds pick the
        best-scoring of their unit candidates, ``_candidates``."""
        P = self._candidates
        return P[np.argmax(P @ S.T, axis=0)]

    # -- bookkeeping -------------------------------------------------------

    def config_dict(self) -> dict:
        return {"kind": self.kind,
                **{name: _field_json(getattr(self, name)) for name in self.fields}}

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(str(self.dimension).encode())
        for name in self.fields:
            h.update(_field_bytes(getattr(self, name)))
        return h.hexdigest()[:12]

    def __repr__(self):
        return f"{type(self).__name__}(dimension={self.dimension})"


class InnerProductNorm(NormSpec):
    """Norm induced by a symmetric positive definite Gram matrix."""

    kind = "inner_product"
    fields = ("gram",)

    def __init__(self, gram):
        G = _real_array(gram, "gram", 2)
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

    def norm_batch(self, V) -> np.ndarray:
        VT, shape = _columns(V)
        Y = VT.T @ self._chol
        return _unbatch(np.sqrt(np.maximum(np.einsum("ij,ij->i", Y, Y), 0.0)), shape)

    def _make_dual(self) -> "InnerProductNorm":
        inv = np.linalg.inv(self.gram)
        return InnerProductNorm(0.5 * (inv + inv.T))

    def _witnesses(self, S):
        return self._units(np.linalg.solve(self.gram, S.T).T)


class WeightedLpNorm(NormSpec):
    """Weighted l^r norm: (sum_i d_i |v_i|^r)^(1/r), max_i d_i |v_i| for r = inf."""

    kind = "weighted_lp"
    fields = ("r", "weights")

    def __init__(self, r, weights):
        d = _real_array(weights, "weights", 1)
        super().__init__(len(d))
        if np.any(d <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        self.r = as_exponent(r)
        self.weights = d
        # cached dispatch flags: Fraction comparisons are too slow for the
        # batch-norm hot path
        self._r_is_inf = self.r == math.inf
        self._rf = math.inf if self._r_is_inf else float(self.r)

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

    def _witnesses(self, S):
        if self._r_is_inf:
            return self._units(_sign_nonzero(S) / self.weights)
        if self.r == 1:
            j = np.argmax(np.abs(S) / self.weights, axis=1)
            rows = np.arange(len(S))
            U = np.zeros_like(S)
            U[rows, j] = _sign_nonzero(S[rows, j]) / self.weights[j]
            return self._units(U)
        t = 1.0 / (self._rf - 1.0)
        return self._units(_sign_nonzero(S) * (np.abs(S) / self.weights) ** t)


class PolyhedralMaxNorm(NormSpec):
    """Max of absolute values of finitely many spanning linear functionals."""

    kind = "polyhedral_max"
    fields = ("functionals",)

    def __init__(self, functionals):
        A = _real_array(functionals, "functionals", 2)
        super().__init__(A.shape[1])
        if np.linalg.matrix_rank(A) < self.dimension:
            raise ValueError("functionals must span the dual space")
        self.functionals = A

    def norm_batch(self, V) -> np.ndarray:
        return _max_abs_batch(self.functionals, V)

    def _make_dual(self) -> "PolytopeGaugeNorm":
        dual = PolytopeGaugeNorm(np.vstack([self.functionals, -self.functionals]))
        dual._dual = self  # the bidual is this norm: one polytope per pair
        return dual

    @functools.cached_property
    def _candidates(self) -> np.ndarray:
        # the facet normals of conv(+-A), held by the dual gauge, are the
        # vertices of the unit ball {v : |A v| <= 1}
        return self._units(self.dual()._facets)


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
    """Distance within which two rows of ``V`` count as the same vertex:
    relative to the largest entry, so scaling ``V`` by a power of two
    scales it alike."""
    return 1e-9 * float(np.max(np.abs(V)))


def _antipodal_pairs(V: np.ndarray) -> np.ndarray:
    """One row per antipodal pair {h, -h} of a symmetric vertex list, in
    the order of first appearance.

    Raises if a row has no antipode.  Rows within 1e-9 (relative to the
    largest entry) of an earlier row or of its negation join that row's
    pair; zero rows lie inside the hull and are dropped.

    The distances ``max_k |V_ik + V_jk|`` and ``max_k |V_ik - V_jk|`` of
    a block of rows i to every row j are one matrix against the stacked
    rows ``[-V; V]``, built coordinate by coordinate in blocks of at most
    ``_SUPPORT_BLOCK`` elements; a walk over the block's rows then keeps
    each row that no earlier kept row has joined.  ``a - (-b)`` is
    ``a + b``, ``a - b`` is ``-(b - a)`` and a maximum does not round, so
    the masks have the bits of one row's reductions against all rows.
    """
    n, d = V.shape
    tol = _pair_tol(V)
    nonzero = np.any(V, axis=1).tolist()
    W = np.concatenate((-V, V))
    paired = np.zeros(n, dtype=bool)
    kept = []
    step = max(1, _SUPPORT_BLOCK // (2 * n))
    for start in range(0, n, step):
        rows = V[start : start + step]
        dist = np.abs(rows[:, :1] - W[:, 0])
        for k in range(1, d):
            np.maximum(dist, np.abs(rows[:, k, None] - W[:, k]), out=dist)
        near = dist <= tol
        antipodes = near[:, :n]
        if not np.all(np.any(antipodes, axis=1)):
            raise ValueError("vertex list must be symmetric (closed under negation)")
        joins = antipodes | near[:, n:]
        for i in range(start, start + len(rows)):
            if nonzero[i] and not paired[i]:
                kept.append(i)
                paired |= joins[i - start]
    if not kept:
        raise ValueError("vertex list has no vertex away from the origin")
    return V[kept]


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


def _first_distinct_rows(R: np.ndarray) -> np.ndarray:
    """Indices, in increasing order, of the first occurrence of each
    distinct row of a C-contiguous ``int8`` array ``R``.

    Each row is packed into one opaque byte string, so the unique runs on a
    1-D array; its stable sort gives the same first indices as
    ``np.unique(R, axis=0, return_index=True)``, at a fraction of its
    per-call overhead.
    """
    packed = R.view(np.dtype((np.void, R.shape[1])))[:, 0]
    return np.sort(np.unique(packed, return_index=True)[1])


def _gauge_facets(H: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet normals ``a`` (facets ``<a, x> = 1``) of conv(+-H), from the
    independent bases ``B`` of ``_gauge_bases``, and one normal of each
    antipodal pair {a, -a} of them.

    For each basis and each sign pattern s, the hyperplane through the
    vertices s_k h_k solves ``B a = s``; it bounds a facet when no vertex
    lies beyond it, ``max |H a| <= 1``.  A facet of a non-simplicial
    polytope comes from several bases; the first candidate with each set
    of (signed) vertices on it is kept.  Candidates run basis by basis, and
    within a basis over the sign patterns in ``itertools.product((1, -1),
    repeat=d)`` order, so the row order is fixed by ``H`` alone.  The
    facets of a symmetric polytope come in pairs {a, -a}, the second the
    exact negation of the first.

    Every step is one array pass over all candidates: one stacked solve,
    the support test in blocks of at most ``_SUPPORT_BLOCK`` products, and
    one 1-D unique over the candidates' sign rows packed as byte strings
    (``_first_distinct_rows``).
    """
    k, d = len(B), H.shape[1]
    h = 2 ** (d - 1)
    # the patterns with s_1 = +1 (bit d - 1 of every index below h is 0);
    # those with s_1 = -1 are their negations, in reverse order, and
    # negating the right side negates the solution
    half = 1.0 - 2.0 * ((np.arange(h)[:, None] >> np.arange(d - 1, -1, -1)) & 1)
    # a (1, d, h) right side: a stack of matrices under every numpy version
    A = np.swapaxes(np.linalg.solve(B, half.T[None]), 1, 2).reshape(-1, d)
    parts = -(-len(A) * len(H) // _SUPPORT_BLOCK)
    blocks = np.array_split(A, parts) if parts > 1 else [A]
    keep = np.concatenate([np.max(np.abs(a @ H.T), axis=1) <= 1.0 + _FACET_TOL
                           for a in blocks]).reshape(k, h)
    # -a passes the test exactly when a does
    b, j = np.nonzero(np.concatenate((keep, keep[:, ::-1]), axis=1))
    negated = j >= h
    A = A.reshape(k, h, d)[b, np.where(negated, 2 * h - 1 - j, j)]
    A[negated] *= -1.0
    HA = A @ H.T
    on_facet = (HA >= 1.0 - _FACET_TOL).astype(np.int8) - (HA <= _FACET_TOL - 1.0)
    first = _first_distinct_rows(on_facet)
    # a candidate and its negation come from the same bases, so both are
    # kept or neither is; the one solved with s_1 = +1 stands for the pair
    return A[first], A[first[~negated[first]]]


class PolytopeGaugeNorm(NormSpec):
    """Minkowski gauge of the convex hull of a symmetric spanning vertex list.

    ``norm_batch`` evaluates the exact facet form
    ``max(F v)``, with the facet matrix ``F`` enumerated at construction
    (``_gauge_facets``), as ``max |H v|`` over the half ``H`` of ``F``
    that holds one normal of each pair {a, -a}: the same bits from half
    the rows, since negation is exact.  The construction cross-check
    compares that form on 8 probes, to ``GAUGE_SOLVER_TOL``, with the
    optimum of the defining linear program over its basic solutions.  Both
    routes start from the same antipodal pairs and bases, but solve their
    own systems; a vertex lost while pairing is caught by the listed
    vertices, each of which must have gauge at most 1 under the facet form.
    The LP itself (minimal t >= 0 with v inside t times the hull) is solved
    only by the tests' oracle, ``tests/oracles.py``.
    """

    kind = "polytope_gauge"
    fields = ("vertices",)

    def __init__(self, vertices):
        V = _real_array(vertices, "vertices", 2)
        super().__init__(V.shape[1])
        if np.linalg.matrix_rank(V) < self.dimension:
            raise ValueError("vertices must span the space")
        pairs = _antipodal_pairs(V)
        self.vertices = V
        self._bases = _gauge_bases(pairs)
        self._facets, self._half_facets = _gauge_facets(pairs, self._bases)
        # Gauge of each listed vertex (1 for true extreme points).
        self._vertex_gauges = np.max(V @ self._facets.T, axis=1)
        self._cross_check()

    def _cross_check(self) -> None:
        rng = np.random.default_rng(_CROSS_CHECK_SEED)
        P = rng.standard_normal((_CROSS_CHECK_PROBES, self.dimension))
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

    def norm_batch(self, V) -> np.ndarray:
        return _max_abs_batch(self._half_facets, V)

    def _make_dual(self) -> "PolyhedralMaxNorm":
        dual = PolyhedralMaxNorm(self.vertices)
        dual._dual = self  # the bidual is this gauge: its facets are enumerated once
        return dual

    @functools.cached_property
    def _candidates(self) -> np.ndarray:
        return self._units(self.vertices / self._vertex_gauges[:, None])


_KINDS = {cls.kind: cls for cls in
          (InnerProductNorm, WeightedLpNorm, PolyhedralMaxNorm, PolytopeGaugeNorm)}


def norm_spec_from_config(cfg: dict) -> NormSpec:
    """Rebuild a norm kind from its ``config_dict`` representation: the
    kind's ``fields``, each required, and no other."""
    try:
        kind = cfg["kind"]
    except (TypeError, KeyError):
        raise ValueError("norm config must be a mapping with a 'kind' entry") from None
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown norm kind: {kind!r}")
    unknown = sorted(set(cfg) - {"kind", *cls.fields})
    missing = [name for name in cls.fields if name not in cfg]
    if unknown or missing:
        raise ValueError(f"norm config for kind {kind!r} " + (
            f"has unknown fields: {unknown}" if unknown else f"is missing field {missing[0]!r}"))
    spec = cls(*(cfg[name] for name in cls.fields))
    if cls is PolyhedralMaxNorm:
        # the dual gauge is built on first use, from at most one pair per row;
        # a config it would refuse is refused here, while it is read
        check_facet_candidates(*spec.functionals.shape)
    return spec
