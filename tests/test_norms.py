"""Norm kinds: axioms, closed-form duals against a brute-force oracle,
maximizer attainment, and config round trips."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bundlelab import norms
from bundlelab.norms import (
    InnerProductNorm,
    PolyhedralMaxNorm,
    PolytopeGaugeNorm,
    WeightedLpNorm,
    norm_spec_from_config,
)

from oracles import gauge_lp_norm


def brute_dual_norm(spec, c, samples=20000, seed=1):
    """Independent dual-norm estimate: max <c, v> over sampled unit vectors.

    A sampled maximum is a lower bound of the dual norm, so closed forms are
    checked from below; the gap tolerance covers sampling resolution in the
    dimensions used here.
    """
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((samples, spec.dimension))
    D = D[np.linalg.norm(D, axis=1) > 1e-9]
    U = D / spec.norm_batch(D)[:, None]
    return float(np.max(U @ np.asarray(c, dtype=float)))


def all_kinds_2d():
    return [
        InnerProductNorm([[2.0, 0.3], [0.3, 1.0]]),
        WeightedLpNorm(1, [1.0, 2.0]),
        WeightedLpNorm(1.5, [0.5, 1.0]),
        WeightedLpNorm(3, [1.0, 2.0]),
        WeightedLpNorm(math.inf, [1.0, 0.5]),
        PolyhedralMaxNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        PolytopeGaugeNorm([[1.5, 0.0], [0.0, 0.5], [-1.5, 0.0], [0.0, -0.5]]),
    ]


@pytest.mark.parametrize("spec", all_kinds_2d(), ids=lambda s: s.digest())
class TestAxioms:
    def test_self_test(self, spec, assert_norm_axioms):
        assert_norm_axioms(spec, probes=32, seed=0)

    def test_batch_matches_scalar(self, spec):
        rng = np.random.default_rng(7)
        V = rng.standard_normal((50, spec.dimension))
        batch = spec.norm_batch(V)
        for v, n in zip(V, batch):
            assert spec.norm(v) == pytest.approx(n, abs=1e-12)

    def test_dual_norm_vs_brute_force(self, spec):
        c = np.array([0.7, -1.1])
        exact = spec.dual().norm(c)
        brute = brute_dual_norm(spec, c)
        assert brute <= exact + 1e-9  # sampled sup never beats the closed form
        assert exact - brute <= 5e-3

    def test_linear_maximizer_attains_dual_norm(self, spec):
        for c in ([0.7, -1.1], [1.0, 0.0], [-2.0, 0.001]):
            value, witness = spec.linear_maximizer(c)
            assert spec.norm(witness) == pytest.approx(1.0, abs=1e-9)
            assert value == pytest.approx(np.dot(c, witness), abs=1e-9)
            assert value == pytest.approx(spec.dual().norm(c), abs=1e-9)

    def test_double_dual_norm_is_original(self, spec):
        rng = np.random.default_rng(5)
        bidual = spec.dual().dual()
        V = rng.standard_normal((20, spec.dimension))
        assert np.max(np.abs(bidual.norm_batch(V) - spec.norm_batch(V))) <= 1e-9

    def test_config_round_trip(self, spec):
        clone = norm_spec_from_config(spec.config_dict())
        assert clone.digest() == spec.digest()
        rng = np.random.default_rng(11)
        V = rng.standard_normal((20, spec.dimension))
        assert np.allclose(clone.norm_batch(V), spec.norm_batch(V), atol=1e-12)


class TestInnerProduct:
    def test_euclidean_values(self):
        spec = InnerProductNorm(np.eye(2))
        assert spec.norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_dual_gram_is_inverse(self):
        G = np.array([[2.0, 0.3], [0.3, 1.0]])
        spec = InnerProductNorm(G)
        assert np.allclose(spec.dual().gram, np.linalg.inv(G), atol=1e-12)
        c = np.array([0.7, -1.1])
        assert spec.dual().norm(c) == pytest.approx(
            math.sqrt(c @ np.linalg.solve(G, c)), abs=1e-12
        )

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            InnerProductNorm([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError):
            InnerProductNorm([[1.0, 0.5], [0.4, 1.0]])  # not symmetric


class TestWeightedLp:
    def test_hand_values(self):
        spec = WeightedLpNorm(3, [1.0, 2.0])
        v = [1.0, -1.0]
        assert spec.norm(v) == pytest.approx(3.0 ** (1 / 3), abs=1e-12)
        sup = WeightedLpNorm(math.inf, [1.0, 0.5])
        assert sup.norm([1.0, 4.0]) == pytest.approx(2.0)

    def test_dual_exponent_and_weights(self):
        spec = WeightedLpNorm(3, [1.0, 2.0])
        dual = spec.dual()
        assert float(dual.r) == pytest.approx(1.5)
        # duality pairing: dual weights d^(1-q)
        assert np.allclose(dual.weights, np.array([1.0, 2.0]) ** (1 - 1.5))

    def test_l1_linf_duality(self):
        l1 = WeightedLpNorm(1, [1.0, 2.0])
        assert float(l1.dual().r) == math.inf
        assert np.allclose(l1.dual().weights, [1.0, 0.5])
        assert float(l1.dual().dual().r) == 1.0

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            WeightedLpNorm(2, [1.0, 0.0])
        with pytest.raises(ValueError):
            WeightedLpNorm(0.5, [1.0, 1.0])


class TestPolyhedral:
    def test_hand_value(self):
        spec = PolyhedralMaxNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert spec.norm([0.8, -0.5]) == pytest.approx(0.8)
        assert spec.norm([0.5, 0.5]) == pytest.approx(1.0)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralMaxNorm([[1.0, 0.0], [2.0, 0.0]])

    def test_dual_is_gauge_of_functional_hull(self):
        spec = PolyhedralMaxNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert spec.dual().norm([1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_linear_maximizer_matches_lp_oracle(self, dim):
        """The polar-vertex maximizer against max <c, v> s.t. |A v| <= 1."""
        rng = np.random.default_rng(30 + dim)
        cube = np.eye(dim)
        cases = [
            # c parallel to a facet normal: a whole facet of the cube ties
            (cube, cube[0]),
            (cube, 2.5 * cube[dim - 1]),
            (cube, np.ones(dim)),
        ]
        A = rng.standard_normal((dim + 3, dim))
        cases += [(A, A[0]), (A, -0.3 * A[1])]
        cases += [(A, rng.standard_normal(dim)) for _ in range(4)]
        for functionals, c in cases:
            spec = PolyhedralMaxNorm(functionals)
            res = linprog(
                -c,
                A_ub=np.vstack([functionals, -functionals]),
                b_ub=np.ones(2 * functionals.shape[0]),
                bounds=[(None, None)] * dim,
                method="highs",
            )
            assert res.status == 0
            value, witness = spec.linear_maximizer(c)
            assert value == pytest.approx(-res.fun, abs=1e-9)
            assert float(c @ witness) == pytest.approx(value, abs=1e-9)
            assert spec.norm(witness) == pytest.approx(1.0, abs=1e-9)


class TestPolytopeGauge:
    def scaled_cross(self):
        return PolytopeGaugeNorm([[1.5, 0.0], [0.0, 0.5], [-1.5, 0.0], [0.0, -0.5]])

    def test_hand_value(self):
        g = self.scaled_cross()
        # gauge of the scaled cross polytope: |x|/1.5 + |y|/0.5
        assert g.norm([0.3, -0.2]) == pytest.approx(0.6, abs=1e-9)

    def test_dual_is_support_function(self):
        g = self.scaled_cross()
        assert g.dual().norm([2.0, 1.0]) == pytest.approx(3.0, abs=1e-9)

    def test_lp_route_matches_facet_route(self):
        half = np.array([[1.0, 0.2, 0.0], [0.0, 1.3, -0.4],
                         [0.3, 0.1, 0.9], [0.7, -0.6, 0.5]])
        for g in (self.scaled_cross(), PolytopeGaugeNorm(np.vstack([half, -half]))):
            rng = np.random.default_rng(2)
            V = rng.standard_normal((40, g.dimension))
            single = np.array([gauge_lp_norm(g, v) for v in V])
            # facet form against the defining linear program
            assert np.allclose([g.norm(v) for v in V], single, rtol=0.0, atol=1e-9)
            # one block LP over all rows gives each row's own value
            assert np.allclose(gauge_lp_norm(g, V), single, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("fault", ["scaled", "missing"])
    def test_cross_check_catches_a_wrong_facet_form(self, fault):
        g = PolytopeGaugeNorm(np.vstack([np.eye(3), [[1.0, 1.0, 0.5]], -np.eye(3), [[-1.0, -1.0, -0.5]]]))
        g._cross_check()
        if fault == "scaled":
            g._facets = g._facets * (1.0 + 1e-6)
        else:
            # drop the facet that attains the gauge of the first probe
            probe = np.random.default_rng(7).standard_normal(3)
            g._facets = np.delete(g._facets, int(np.argmax(g._facets @ probe)), axis=0)
        with pytest.raises(AssertionError, match="routes disagree"):
            g._cross_check()

    def test_too_many_facet_candidates_rejected_before_enumerating(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("facet candidates were enumerated")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        cross = np.vstack([np.eye(20), -np.eye(20)])  # C(20, 20) * 2^20 candidates
        with pytest.raises(ValueError, match=r"1048576 facet candidates .* limit of 524288"):
            PolytopeGaugeNorm(cross)
        # a polyhedral config is refused when read, not when its dual is built
        assert PolyhedralMaxNorm(np.eye(20)).norm(np.ones(20)) == 1.0
        with pytest.raises(ValueError, match=r"1048576 facet candidates"):
            norm_spec_from_config({"kind": "polyhedral_max", "functionals": np.eye(20).tolist()})

    def test_cross_check_catches_a_vertex_lost_in_pairing(self, monkeypatch):
        # both routes start from the pairs, so only the listed vertices see it
        monkeypatch.setattr(norms, "_antipodal_pairs",
                            lambda V, pairs=norms._antipodal_pairs: pairs(V)[:-1])
        angles = np.pi * np.arange(6) / 3
        hexagon = np.column_stack([np.cos(angles), np.sin(angles)])
        with pytest.raises(AssertionError, match="misses part of the hull"):
            PolytopeGaugeNorm(hexagon)

    def test_non_simplicial_facets_are_listed_once(self):
        # the cube: each square facet is spanned by four bases of three vertices
        cube = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        g = PolytopeGaugeNorm(cube)
        assert np.array_equal(g._facets, np.vstack([np.eye(3), -np.eye(3)[::-1]]))
        assert g.norm([0.5, -2.0, 1.0]) == 2.0

    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(ValueError):
            PolytopeGaugeNorm([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

    def test_degenerate_vertices_rejected(self):
        with pytest.raises(ValueError):
            PolytopeGaugeNorm([[1.0, 0.0], [-1.0, 0.0]])


def one_norm_of_each_kind(dim, r=1.5):
    """A norm of every kind on R^dim, coefficients from a fixed seed."""
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    rows = rng.standard_normal((dim + 2, dim))
    return [
        InnerProductNorm(a @ a.T + 0.5 * np.eye(dim)),
        WeightedLpNorm(r, rng.uniform(0.5, 2.0, dim)),
        PolyhedralMaxNorm(rows),
        PolytopeGaugeNorm(np.vstack([rows, -rows])),
    ]


def row_major_norm_batch(spec, V):
    """The row-major formulas, reducing along the last axis.  A single
    vector is evaluated as a row of a two-row batch, where a row-independent
    kernel must give it the same bits as alone."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        return row_major_norm_batch(spec, np.stack([V, V]))[0]
    if isinstance(spec, InnerProductNorm):
        Y = V @ spec._chol
        return np.sqrt(np.maximum(np.einsum("...i,...i->...", Y, Y), 0.0))
    if isinstance(spec, WeightedLpNorm):
        if spec.r == math.inf:
            return np.max(spec.weights * np.abs(V), axis=-1)
        rf = float(spec.r)
        return np.sum(spec.weights * np.abs(V) ** rf, axis=-1) ** (1.0 / rf)
    if isinstance(spec, PolyhedralMaxNorm):
        return np.max(np.abs(V @ spec.functionals.T), axis=-1)
    return np.max(V @ spec._facets.T, axis=-1)


@pytest.mark.parametrize("r", [1, 1.5, 2, 3, math.inf])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 9])
def test_norm_batch_matches_row_major_formula(dim, r):
    rng = np.random.default_rng(10 * dim)
    wide = rng.standard_normal((23, dim + 3))
    inputs = [
        rng.standard_normal((17, dim)),
        rng.standard_normal(dim),
        np.zeros((0, dim)),
        rng.standard_normal((2, 5, dim)),
        wide[:, 1 : 1 + dim],  # a column slice, as the section closure passes
    ]
    for spec in one_norm_of_each_kind(dim, r):
        for V in inputs:
            got = spec.norm_batch(V)
            want = row_major_norm_batch(spec, V)
            assert np.shape(got) == np.shape(want)
            if dim < 8:
                assert np.array_equal(got, want), (spec.kind, np.shape(V))
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (spec.kind, np.shape(V))


@pytest.mark.parametrize("r", [1, 1.5, 2, 3, math.inf])
@pytest.mark.parametrize("dim", range(1, 21))
def test_weighted_lp_norm_batch_is_row_independent(dim, r):
    """A row's norm has the same bits alone, as a one-row batch, and inside
    a batch, as the batched searches require of every evaluator; checked for
    a weighted l^r norm of exponent r and a norm of each other kind."""
    rng = np.random.default_rng(dim)
    specs = [WeightedLpNorm(r, rng.uniform(0.5, 2.0, dim))]
    X = rng.standard_normal((50, dim))
    a = rng.standard_normal((dim, dim))
    rows = rng.standard_normal((dim + 2, dim))
    specs += [InnerProductNorm(a @ a.T + 0.5 * np.eye(dim)), PolyhedralMaxNorm(rows)]
    if dim <= 10:  # past 10 dimensions the hull has too many facets to build quickly
        specs.append(PolytopeGaugeNorm(np.vstack([rows, -rows])))
    for spec in specs:
        full = spec.norm_batch(X)
        for i, row in enumerate(X):
            assert spec.norm_batch(X[i : i + 1])[0] == full[i], spec.kind
            assert spec.norm_batch(row) == full[i], spec.kind
            assert spec.norm_batch(X[i : i + 2])[0] == full[i], spec.kind


def extreme_magnitude_kinds():
    return all_kinds_2d() + [
        InnerProductNorm(np.eye(2)),
        InnerProductNorm(np.diag([1.0, 1e-10])),  # the solve for c overflows at 1e300
        WeightedLpNorm(2, [1.0, 3.0]),
    ]


@pytest.mark.parametrize("magnitude", [1e-300, 1e-200, 1.0, 1e200, 1e300])
@pytest.mark.parametrize("spec", extreme_magnitude_kinds(), ids=lambda s: s.digest())
def test_unit_and_maximizer_at_extreme_magnitudes(spec, magnitude):
    for direction in ([1.0, 0.0], [1.0, 1.0], [0.3, -0.7]):
        v = magnitude * np.array(direction)
        u = spec.unit(v)
        assert np.all(np.isfinite(u))
        assert spec.norm(u) == pytest.approx(1.0, abs=1e-9)
        # a positive multiple of the input
        assert np.allclose(u / np.max(np.abs(u)), v / np.max(np.abs(v)), rtol=1e-12, atol=0.0)
        value, witness = spec.linear_maximizer(v)
        assert np.all(np.isfinite(witness))
        assert spec.norm(witness) == pytest.approx(1.0, abs=1e-9)
        assert value == pytest.approx(float(v @ witness), rel=1e-12)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown norm kind"):
            norm_spec_from_config({"kind": "does_not_exist"})

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="kind"):
            norm_spec_from_config({"gram": [[1.0]]})

    def test_digest_is_stable_across_processes(self):
        # frozen: digests must not drift, they key caches and CSV replays
        spec = WeightedLpNorm(2.0, [1.0, 2.0])
        assert spec.digest() == WeightedLpNorm(2, [1.0, 2.0]).digest()


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-5, 5, allow_nan=False),
    y=st.floats(-5, 5, allow_nan=False),
    u=st.floats(-5, 5, allow_nan=False),
    v=st.floats(-5, 5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_norm_axioms_property(x, y, u, v, t):
    """Homogeneity and the triangle inequality on a representative kind."""
    spec = WeightedLpNorm(1.5, [1.0, 2.0])
    a = np.array([x, y])
    b = np.array([u, v])
    assert spec.norm(t * a) == pytest.approx(abs(t) * spec.norm(a), rel=1e-9, abs=1e-9)
    assert spec.norm(a + b) <= spec.norm(a) + spec.norm(b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    cx=st.floats(-3, 3, allow_nan=False),
    cy=st.floats(-3, 3, allow_nan=False),
)
def test_dual_norm_is_support_function_property(cx, cy):
    """<c,v> <= dual norm of c * norm(v) with equality at the maximizer."""
    spec = PolytopeGaugeNorm([[1.5, 0.0], [0.0, 0.5], [-1.5, 0.0], [0.0, -0.5]])
    c = np.array([cx, cy])
    dual = spec.dual().norm(c)
    X = np.random.default_rng(9).standard_normal((32, 2))
    pts = X / spec.norm_batch(X)[:, None]
    assert np.max(pts @ c) <= dual + 1e-9
    value, witness = spec.linear_maximizer(c)
    assert value == pytest.approx(dual, abs=1e-9)
    assert float(c @ witness) == pytest.approx(dual, abs=1e-9)
