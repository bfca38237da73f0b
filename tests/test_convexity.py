"""Modulus-of-convexity searches: closed-form oracle for inner products,
exact zero for flat norms, witness contracts, and determinism."""

import dataclasses
import hashlib
import math
import os
import threading
import time

import numpy as np
import pytest

from bundlelab import convexity
from bundlelab.bundles import (
    Bundle,
    Fiber,
    _section_norms,
    section_modulus_curve,
)
from bundlelab.convexity import (
    DEFAULT_EPS_GRID,
    FEASIBILITY_SLACK,
    SearchBudget,
    SearchGroup,
    modulus_curve,
    modulus_curves,
    modulus_grid_estimate_2d,
    pair_search,
    parallelogram_defects,
    single_norm_group,
    structured_pairs,
    structured_pairs_for_fn,
)
from bundlelab.measure import MeasureSpace
from bundlelab.norms import (
    InnerProductNorm,
    PolyhedralMaxNorm,
    PolytopeGaugeNorm,
    WeightedLpNorm,
)
from bundlelab.suites import SUITE_BUDGET

from oracles import (
    exponent_norm,
    isotonic_clamp_by_loop,
    maximize_linear_on_sphere,
    section_norm_batch,
    structured_pairs_by_loops,
)

TEST_BUDGET = SearchBudget(restarts=16, iterations=80)


def euclid_modulus(eps):
    """Closed-form modulus for any inner-product norm: 1 - sqrt(1 - eps^2/4).

    Derivation (independent of the search code): for unit v, w at distance
    eps, the parallelogram identity gives ||v+w||^2 = 4 - eps^2 exactly when
    ||v-w|| = eps, so the midpoint gap is minimized on the boundary.
    """
    return 1.0 - math.sqrt(1.0 - (eps / 2.0) ** 2)


def test_closed_form_frozen_value():
    # frozen from the derivation above; guards against edits to the helper
    assert euclid_modulus(1.0) == pytest.approx(0.1339745962155614, abs=1e-15)
    assert euclid_modulus(2.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        InnerProductNorm(np.eye(2)),
        InnerProductNorm([[2.0, 0.3], [0.3, 1.0]]),
        InnerProductNorm(np.diag([1.0, 2.0, 0.5])),
    ],
    ids=["euclid-2d", "skewed-2d", "diag-3d"],
)
def test_inner_product_curve_matches_closed_form(spec):
    curve = modulus_curve(spec, budget=TEST_BUDGET)
    target = np.array([euclid_modulus(e) for e in curve.epsilons])
    # estimates are upper bounds for the slack-relaxed infimum; the relaxation
    # matters near eps = 2 where the closed form has a square-root singularity
    floor = np.array(
        [euclid_modulus(max(e - FEASIBILITY_SLACK, 1e-12)) for e in curve.epsilons]
    )
    assert np.all(curve.deltas >= floor - 1e-9)
    assert np.max(np.abs(curve.deltas - target)) <= 1e-3


def clarkson_modulus(eps, r):
    """Clarkson (1936): the modulus of l^r for r >= 2 in any dimension >= 2,
    1 - (1 - (eps/2)^r)^(1/r), attained by the pair (s, t), (s, -t)."""
    return 1.0 - (1.0 - (eps / 2.0) ** r) ** (1.0 / r)


def assert_clarkson_bracket(curve, r):
    """Each raw estimate is the midpoint gap of a unit pair separated by at
    least eps - FEASIBILITY_SLACK, so it cannot fall below the modulus there;
    it should reach the modulus at eps itself to the search's accuracy."""
    eps = curve.epsilons
    floor = np.array([clarkson_modulus(e - FEASIBILITY_SLACK, r) for e in eps])
    target = np.array([clarkson_modulus(e, r) for e in eps])
    assert np.all(curve.raw_deltas >= floor - 1e-12)
    assert np.all(curve.raw_deltas <= target + 1e-6)


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_weighted_lp_curve_matches_clarkson(r):
    # positive weights make weighted l^r isometric to l^r
    assert_clarkson_bracket(modulus_curve(WeightedLpNorm(r, [0.7, 1.9]), budget=TEST_BUDGET), r)


@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_lr_section_space_at_p_equal_r_matches_clarkson(r):
    # sum_x mu_x w_x |v_x|^r: the section space is a weighted l^r space
    space = MeasureSpace(["a", "b"], [0.6, 1.7])
    b = Bundle(space, [Fiber(1, WeightedLpNorm(r, [1.3])), Fiber(1, WeightedLpNorm(r, [0.8]))])
    assert_clarkson_bracket(section_modulus_curve(b, r, budget=TEST_BUDGET), r)


def test_fiber_curves_meet_the_closed_forms():
    """The fiber gate: under the suites' fiber budget every raw estimate
    lies between Clarkson's modulus at eps - FEASIBILITY_SLACK, which no
    feasible pair undercuts, and the modulus at eps plus the Hilbert
    allowance 1e-6.  The fibers: four inner-product, four weighted l^2 and
    four weighted l^3 norms in each of dimensions 2 and 3; an inner-product
    space is isometric to l^2 and a weighted l^r space to l^r.  Hanner's
    l^r for 1 < r < 2 stays out: there the search still overshoots the
    modulus by up to 5.6e-3."""
    rng = np.random.default_rng(18)
    fibers = []
    for dim in (2, 3):
        for _ in range(4):
            M = rng.standard_normal((dim, dim))
            fibers.append((InnerProductNorm(M @ M.T + 0.5 * np.eye(dim)), 2))
            for r in (2, 3):
                fibers.append((WeightedLpNorm(r, rng.uniform(0.3, 3.0, dim)), r))
    curves = modulus_curves([spec for spec, _ in fibers], budget=SUITE_BUDGET)
    for (_, r), curve in zip(fibers, curves):
        assert_clarkson_bracket(curve, r)


@pytest.mark.parametrize(
    "spec",
    [
        WeightedLpNorm(1, [1.0, 2.0]),
        WeightedLpNorm(math.inf, [1.0, 1.0]),
        PolyhedralMaxNorm([[1.0, 0.0], [0.0, 1.0]]),
        PolytopeGaugeNorm([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
    ],
    ids=["l1", "linf", "square-max", "cross-gauge"],
)
def test_flat_norms_have_zero_modulus(spec):
    """Sign-pattern / vertex pairs realize midpoints on the sphere, so the
    search must return exactly 0.0 (not merely something small)."""
    curve = modulus_curve(spec, budget=TEST_BUDGET)
    assert np.all(curve.deltas == 0.0)
    for eps, (v, w) in zip(curve.epsilons, curve.witnesses):
        assert spec.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(v - w) >= eps - FEASIBILITY_SLACK


def test_witness_contract_euclid():
    spec = InnerProductNorm(np.eye(2))
    curve = modulus_curve(spec, [1.0], budget=TEST_BUDGET)
    delta, (v, w) = curve.deltas[0], curve.witnesses[0]
    assert spec.norm(v) == pytest.approx(1.0, abs=1e-9)
    assert spec.norm(w) == pytest.approx(1.0, abs=1e-9)
    assert spec.norm(v - w) >= 1.0 - FEASIBILITY_SLACK
    # the witness midpoint gap reproduces the reported value
    assert 1.0 - spec.norm((v + w) / 2.0) == pytest.approx(delta, abs=1e-12)
    assert delta == pytest.approx(euclid_modulus(1.0), abs=1e-3)


def test_curve_is_isotonic_and_below_raw():
    spec = WeightedLpNorm(3, [1.0, 1.0])
    curve = modulus_curve(spec, budget=TEST_BUDGET)
    assert np.all(np.diff(curve.deltas) >= 0.0)
    assert np.all(curve.deltas <= curve.raw_deltas + 1e-15)


def test_determinism_same_budget_same_bits():
    spec = WeightedLpNorm(1.5, [1.0, 2.0])
    a = modulus_curve(spec, budget=TEST_BUDGET)
    b = modulus_curve(spec, budget=TEST_BUDGET)
    assert np.array_equal(a.deltas, b.deltas)
    assert np.array_equal(a.raw_deltas, b.raw_deltas)
    for (v1, w1), (v2, w2) in zip(a.witnesses, b.witnesses):
        assert np.array_equal(v1, v2) and np.array_equal(w1, w2)


def test_one_dimensional_convention():
    spec = WeightedLpNorm(2, [1.0])
    curve = modulus_curve(spec, budget=TEST_BUDGET)
    assert np.all(curve.deltas == 1.0)
    for v, w in curve.witnesses:
        assert np.allclose(v, -w)
        assert spec.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_default_grid_shape():
    assert len(DEFAULT_EPS_GRID) == 20
    assert DEFAULT_EPS_GRID[0] == pytest.approx(0.1)
    assert DEFAULT_EPS_GRID[-1] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "bad",
    [[], [0.0, 1.0], [-0.5], [2.5], [0.5, 0.5], [1.0, 0.5]],
    ids=["empty", "zero", "negative", "above-two", "flat", "decreasing"],
)
def test_bad_grids_rejected(bad):
    spec = InnerProductNorm(np.eye(2))
    with pytest.raises(ValueError):
        modulus_curve(spec, eps_grid=bad, budget=TEST_BUDGET)


def test_grid_oracle_agrees_with_search_on_gauge(monkeypatch):
    """Two independent routes to the same planar curve: dense angle-pair
    enumeration vs multi-start descent."""
    monkeypatch.setattr(convexity, "GRID_SAMPLES", 2048)
    spec = PolytopeGaugeNorm(
        [[1.2, 0.1], [0.2, 0.9], [-1.2, -0.1], [-0.2, -0.9]]
    )
    grid = [0.4, 0.8, 1.2, 1.6, 2.0]
    eps, dense = modulus_grid_estimate_2d(spec, grid)
    curve = modulus_curve(spec, grid, budget=TEST_BUDGET)
    assert np.max(np.abs(curve.deltas - dense)) <= 2e-3


def test_grid_oracle_requires_dimension_two():
    with pytest.raises(ValueError, match="dimension 2"):
        modulus_grid_estimate_2d(InnerProductNorm(np.eye(3)))


@pytest.mark.parametrize(
    "fields",
    [
        {"restarts": 0},
        {"restarts": -3, "iterations": 0, "min_step": -1},
        {"iterations": 0},
        {"seed": -1},
        {"restarts": True},
        {"iterations": 10.0},
        {"seed": "0"},
        {"init_step": 0.0},
        {"min_step": -1e-7},
        {"penalty": math.inf},
        {"init_step": math.nan},
        {"penalty": False},
        {"init_step": 1e-8},  # below the default min_step
    ],
)
def test_search_budget_rejects_invalid_fields(fields):
    with pytest.raises((TypeError, ValueError)):
        SearchBudget(**fields)


def test_search_budget_accepts_boundary_values():
    b = SearchBudget(restarts=1, iterations=1, seed=0, init_step=0.5, min_step=0.5, penalty=1)
    assert dataclasses.astuple(b) == (1, 1, 0, 0.5, 0.5, 1)
    assert SearchBudget(restarts=np.int64(3)).restarts == 3


class TestParallelogramDefect:
    def test_inner_product_defect_vanishes(self):
        defect, (v, w) = parallelogram_defects([InnerProductNorm([[2.0, 0.3], [0.3, 1.0]])])[0]
        assert defect <= 1e-9

    def test_l1_defect_is_four(self):
        # v = e1, w = e2: ||v+w||^2 + ||v-w||^2 = 4 + 4, defect |8 - 4| = 4,
        # and 4 is the ceiling since each term is at most 2^2
        spec = WeightedLpNorm(1, [1.0, 1.0])
        defect, (v, w) = parallelogram_defects([spec])[0]
        assert defect == pytest.approx(4.0, abs=1e-9)
        assert spec.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(w) == pytest.approx(1.0, abs=1e-9)

    def test_linf_defect_is_four(self):
        defect, _ = parallelogram_defects([WeightedLpNorm(math.inf, [1.0, 1.0])])[0]
        assert defect == pytest.approx(4.0, abs=1e-9)

    def test_witness_reproduces_defect(self):
        spec = WeightedLpNorm(3, [1.0, 2.0])
        defect, (v, w) = parallelogram_defects([spec])[0]
        re = abs(spec.norm(v + w) ** 2 + spec.norm(v - w) ** 2 - 4.0)
        assert re == pytest.approx(defect, abs=1e-12)
        assert defect > 1e-3  # p=3 is genuinely non-Hilbert


LINES = [InnerProductNorm([[3.0]]), WeightedLpNorm(1.5, [0.7]), WeightedLpNorm(2, [2.0]),
         WeightedLpNorm("inf", [1.3]), PolyhedralMaxNorm([[2.0], [-0.5]]),
         PolytopeGaugeNorm([[1.7], [-1.7]])]


@pytest.mark.parametrize("spec", LINES, ids=lambda s: s.kind)
def test_a_line_is_answered_by_the_kernel(spec):
    """On a line, modulus curves and defects come from ``pair_search`` like
    any other dimension: raw and clamped deltas exactly 1.0, defect exactly
    0.0, each witness (u, -u) with u the ``_unit_rows`` of 1."""
    u = convexity._unit_rows(spec.norm_batch, np.ones((1, 1)))[0]
    curve = modulus_curve(spec, [0.5, 1.0, 2.0], SearchBudget(restarts=4, iterations=10))
    assert curve.raw_deltas.tolist() == curve.deltas.tolist() == [1.0] * 3
    [(defect, pair)] = parallelogram_defects([spec])
    assert defect == 0.0
    for v, w in list(curve.witnesses) + [pair]:
        assert np.array_equal(v, u) and np.array_equal(w, -u)


def test_parallelogram_defects_batch_matches_solo_runs(monkeypatch):
    """One batched call, a kernel call per dimension, gives the bits of each
    spec alone: every kind, dimensions 1-3, and two specs of one kind."""
    specs = [
        WeightedLpNorm(2, [1.3]),
        InnerProductNorm([[2.0, 0.3], [0.3, 1.0]]),
        WeightedLpNorm(3, [1.0, 2.0]),
        PolyhedralMaxNorm([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.0], [1.0, 1.0, 1.0]]),
        WeightedLpNorm(1.5, [1.0, 0.5, 2.0]),
        PolytopeGaugeNorm(np.vstack([np.eye(3), [[1.0, 1.0, 0.5]], -np.eye(3), [[-1.0, -1.0, -0.5]]])),
        InnerProductNorm(np.diag([1.0, 2.0, 0.5])),
    ]
    budget = SearchBudget(restarts=6, iterations=40, init_step=0.35)
    dims = []
    real = convexity.pair_search

    def counting(groups, dim, *args, **kwargs):
        dims.append(dim)
        return real(groups, dim, *args, **kwargs)

    monkeypatch.setattr(convexity, "pair_search", counting)
    batched = parallelogram_defects(specs, budget)
    assert dims == [1, 2, 3]
    solo = [parallelogram_defects([spec], budget)[0] for spec in specs]
    for spec, (d_a, (v_a, w_a)), (d_b, (v_b, w_b)) in zip(specs, batched, solo):
        assert d_a == d_b and np.array_equal(v_a, v_b) and np.array_equal(w_a, w_b)
        assert spec.norm(v_a) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(w_a) == pytest.approx(1.0, abs=1e-9)
        re = abs(spec.norm(v_a + w_a) ** 2 + spec.norm(v_a - w_a) ** 2 - 4.0)
        assert re == pytest.approx(d_a, abs=1e-12)
    defects = [d for d, _ in batched]
    assert defects[0] == 0.0
    assert defects[1] <= 1e-9 and defects[6] <= 1e-9
    assert min(defects[2:6]) > 1e-3


def _curve_bits(specs, budget):
    return [np.concatenate([c.raw_deltas, c.deltas, *(x for pair in c.witnesses for x in pair)])
            .tobytes() for c in modulus_curves(specs, [1.0, 2.0], budget)]


def _defect_bits(specs, budget):
    return [np.concatenate([[d], v, w]).tobytes() for d, (v, w) in parallelogram_defects(specs, budget)]


@pytest.mark.parametrize("bits", [_curve_bits, _defect_bits], ids=["modulus_curves", "defects"])
def test_equal_specs_are_searched_once_per_call(monkeypatch, bits):
    """A spec, an equal spec built separately and a third spec send two
    searches to the kernel, and each position gets its spec's solo bits."""
    specs = [InnerProductNorm(np.eye(2)), WeightedLpNorm(3, [1.0, 2.0]),
             InnerProductNorm([[1.0, 0.0], [0.0, 1.0]])]
    budget = SearchBudget(restarts=4, iterations=20)
    searches = []
    real = convexity.pair_search

    def counting(groups, dim, *args, **kwargs):
        searches.extend(s for g in groups for s in g.searches)
        return real(groups, dim, *args, **kwargs)

    monkeypatch.setattr(convexity, "pair_search", counting)
    batched = bits(specs, budget)
    assert len(searches) == 2
    assert batched == [bits([spec], budget)[0] for spec in specs]


class TestLinearMaximization:
    @pytest.mark.parametrize(
        "spec",
        [
            InnerProductNorm([[2.0, 0.3], [0.3, 1.0]]),
            WeightedLpNorm(3, [1.0, 2.0]),
            PolytopeGaugeNorm([[1.5, 0.0], [0.0, 0.5], [-1.5, 0.0], [0.0, -0.5]]),
        ],
        ids=["ip", "wlp3", "gauge"],
    )
    def test_search_matches_closed_form(self, spec):
        c = np.array([0.7, -1.1])
        value, point = maximize_linear_on_sphere(spec.norm_batch, 2, c)
        closed, _ = spec.linear_maximizer(c)
        assert value == pytest.approx(closed, abs=1e-6)
        assert spec.norm(point) == pytest.approx(1.0, abs=1e-9)

    def test_zero_functional(self):
        spec = InnerProductNorm(np.eye(2))
        value, point = maximize_linear_on_sphere(spec.norm_batch, 2, [0.0, 0.0])
        assert value == pytest.approx(0.0, abs=1e-12)
        assert spec.norm(point) == pytest.approx(1.0, abs=1e-9)


class TestBatchedSearch:
    """Many searches in one pair_search call give the bits of each alone."""

    EPS = [0.5, 1.5, 2.0]
    # converges at different iterations for different searches
    BUDGET = SearchBudget(restarts=6, iterations=200, min_step=1e-3)

    @staticmethod
    def _groups():
        fibers = [
            InnerProductNorm([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]),
            WeightedLpNorm(3, [1.0, 2.0, 0.5]),
            WeightedLpNorm(1.5, [1.0, 1.0, 1.0]),
            PolyhedralMaxNorm([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.0], [1.0, 1.0, 1.0]]),
            PolytopeGaugeNorm(np.vstack([np.eye(3), [[1.0, 1.0, 0.5]], -np.eye(3), [[-1.0, -1.0, -0.5]]])),
        ]
        groups = [single_norm_group(s.norm_batch, structured_pairs(s)) for s in fibers]
        line = WeightedLpNorm(2, [1.3])
        # a zero-dimensional fiber, and one spec on two atoms (evaluated once)
        mixed = Bundle(MeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.0]),
                       [Fiber(2, WeightedLpNorm(3, [1.0, 2.0])), Fiber(0), Fiber(1, line)])
        shared = Bundle(MeasureSpace(["a", "b", "c"], [0.7, 1.0, 1.4]),
                        [Fiber(1, line), Fiber(1, InnerProductNorm([[2.0]])), Fiber(1, line)])
        for bundle, exponents in ((mixed, [1.5, 2, 3, math.inf]), (shared, [2, math.inf])):
            searches = [structured_pairs_for_fn(section_norm_batch(bundle, p), 3)
                        for p in exponents]
            groups.append(SearchGroup(_section_norms(bundle, exponents), searches))
        return groups

    @staticmethod
    def _assert_identical(results, expected):
        """Raw deltas, witnesses and counters all equal, bit for bit."""
        assert len(results) == len(expected)
        for (raw_a, wit_a, count_a), (raw_b, wit_b, count_b) in zip(results, expected):
            assert np.array_equal(raw_a, raw_b)
            for (va, wa), (vb, wb) in zip(wit_a, wit_b):
                assert np.array_equal(va, vb) and np.array_equal(wa, wb)
            assert count_a == count_b

    @pytest.mark.parametrize("cap", [None, 10**9, 1], ids=["default-cap", "one-batch", "per-group"])
    def test_batch_matches_solo_runs(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(convexity, "_MAX_LANE_COORDS", cap)
        groups = self._groups()
        batched = pair_search(groups, 3, self.EPS, self.BUDGET)
        solo = []
        for group in groups:
            for j, search in enumerate(group.searches):
                norm = exponent_norm(group.evaluate, j, len(group.searches))
                solo += pair_search([single_norm_group(norm, search)], 3, self.EPS, self.BUDGET)
        assert len(batched) == len(solo) == 5 + 4 + 2
        self._assert_identical(batched, solo)
        iterations = [c["iterations"] for _, _, c in batched]
        # searches leave the batch at different iterations, and some early
        assert len(set(iterations)) > 1 and min(iterations) < self.BUDGET.iterations

    def test_kernel_bits_are_pinned(self):
        """Refactors of the search kernel keep its exact estimates: the
        SHA-256 of every raw delta of these searches is fixed."""
        h = hashlib.sha256()
        for raw, _, _ in pair_search(self._groups(), 3, self.EPS, self.BUDGET):
            h.update(raw.tobytes())
        # retaken when the separation repair went: it had lowered 7 of the
        # eps = 2 estimates, from the antipodal restart's 1.0, by up to 2e-8
        assert h.hexdigest() == "0967a6cf9a0bada0e6885f67f49bdfdd5d27f640b071cc203b0d44163c658377"

    def test_kernel_witnesses_are_pinned(self):
        """The SHA-256 of every witness pair of these searches is fixed.  A
        row whose raw delta is 0 may report any pair that reaches 0, so its
        witness moves with changes that keep every raw delta."""
        h = hashlib.sha256()
        for _, witnesses, _ in pair_search(self._groups(), 3, self.EPS, self.BUDGET):
            for v, w in witnesses:
                h.update(v.tobytes() + w.tobytes())
        # retaken when rows that reach 0 began to retire: such a row's
        # witness became the first of its lanes with the least objective
        # then; and when the separation repair went, which moved the eps = 2
        # witnesses of the estimates it had lowered
        assert h.hexdigest() == "416cc00f22ee3b5d0e27f8933aebd3069d6cf4cd7ee1e5f2873ca89e317bb18d"

    def test_a_row_that_reaches_zero_retires(self):
        """The flat polytope gauge (search 4) holds a feasible pair of
        objective 0 at every eps after its first iteration, so every lane
        retires then, far below the 577,158 rows its 163 iterations asked
        for before such rows retired; each witness reaches 0."""
        spec = PolytopeGaugeNorm(np.vstack([np.eye(3), [[1.0, 1.0, 0.5]],
                                            -np.eye(3), [[-1.0, -1.0, -0.5]]]))
        [(raw, witnesses, c)] = pair_search([self._groups()[4]], 3, self.EPS, self.BUDGET)
        assert c["iterations"] == 1 and 10 * c["rows"] < 577_158
        assert np.all(raw == 0.0)
        for eps, (v, w) in zip(self.EPS, witnesses):
            assert 1.0 - spec.norm((v + w) / 2) <= 0.0
            assert spec.norm(v - w) >= eps - FEASIBILITY_SLACK

    def test_shared_start_pairs_equal_their_per_eps_copy(self):
        """A search's ``(k, 2, dim)`` start pairs and their explicit
        ``(len(eps), k, 2, dim)`` copy give the same bits and counters, and
        the witnesses come back as one ``(len(eps), 2, dim)`` array."""
        groups = self._groups()
        copies = [SearchGroup(g.evaluate, [np.array([s] * len(self.EPS)) for s in g.searches])
                  for g in groups]
        shared = pair_search(groups, 3, self.EPS, self.BUDGET)
        self._assert_identical(pair_search(copies, 3, self.EPS, self.BUDGET), shared)
        assert all(witnesses.shape == (len(self.EPS), 2, 3) for _, witnesses, _ in shared)

    def test_a_coordinate_step_asks_22_rows_per_lane(self):
        """Six endpoints and the midpoints and differences of eight pairs
        per lane and coordinate; ``rows`` counts every row asked for."""
        spec = WeightedLpNorm(3, [1.0, 2.0, 0.5])
        asked = []

        def counting(X):
            asked.append(len(X))
            return spec.norm_batch(X)

        counters = []
        for iterations in (3, 4):
            asked.clear()
            budget = SearchBudget(restarts=6, iterations=iterations, min_step=1e-12)
            [(_, _, c)] = pair_search([single_norm_group(counting, structured_pairs(spec))],
                                      3, self.EPS, budget)
            assert c["iterations"] == iterations and c["rows"] == sum(asked)
            counters.append(c)
        # the extra iteration accounts for the rows
        assert counters[1]["rows"] - counters[0]["rows"] == 22 * 3 * counters[0]["lanes"]

    def test_converged_lanes_retire(self):
        """A lane leaves the batch at the end of the iteration in which its
        step falls below ``min_step``: no coordinate step hands it to the
        evaluator again, so the search asks for fewer than 22 rows per lane,
        coordinate and iteration used.  A step block's endpoints V + s e_i
        and V (its slabs 0 and 2) differ by the lane's step s in one
        coordinate."""
        spec = WeightedLpNorm(3, [1.0, 2.0, 0.5])
        steps = []

        def evaluate(A, counts):
            if len(A) == len(convexity._END_STEPS):
                steps.append(np.max(np.abs(A[0] - A[2]), axis=1))
            return spec.norm_batch(A.reshape(-1, 3)).reshape(A.shape[:-1])

        [(_, _, c)] = pair_search([SearchGroup(evaluate, [structured_pairs(spec)])],
                                  3, self.EPS, self.BUDGET)
        widths = [len(s) for s in steps]
        # lanes converged at several iterations
        assert len(set(widths)) > 2 and widths[0] == c["lanes"]
        assert len(steps) == 3 * c["iterations"]
        assert min(np.min(s) for s in steps) >= self.BUDGET.min_step
        assert c["rows"] < c["lanes"] * c["iterations"] * 3 * 22

    def test_objective_reaches_every_step(self):
        """An objective equal to the default, but not it, gives the same bits
        and counters, and every call hands it the separations."""
        spec = WeightedLpNorm(3, [1.0, 2.0, 0.5])
        group = single_norm_group(spec.norm_batch, structured_pairs(spec))
        seen = []

        def gap(mid_norms, sep_norms):
            seen.append(sep_norms is not None)
            return 1.0 - mid_norms

        [expected] = pair_search([group], 3, self.EPS, self.BUDGET)
        [result] = pair_search([group], 3, self.EPS, self.BUDGET, objective=gap)
        self._assert_identical([result], [expected])
        assert seen and all(seen)

    def test_curve_meta_records_search_counters(self):
        spec = WeightedLpNorm(3, [1.0, 2.0])
        curve = modulus_curve(spec, [1.0, 2.0], budget=self.BUDGET)
        counters = curve.meta["search"]
        assert set(counters) == {"iterations", "lanes", "rows"}
        assert 1 <= counters["iterations"] <= self.BUDGET.iterations
        assert counters["lanes"] == 2 * (self.BUDGET.restarts + len(structured_pairs(spec)))

    # ``pair_search`` splits its searches over forked children: the bits
    # never depend on the split, and no child outlives a call

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two usable CPUs, no work threshold, and a count of ``os.fork`` calls."""
        monkeypatch.setattr(convexity, "_worker_count", lambda: 2)
        monkeypatch.setattr(convexity, "_MIN_FORK_WORK", 0)
        calls = []
        real = os.fork

        def fork():
            calls.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", fork)
        yield calls
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @classmethod
    def _straddling_groups(cls):
        """``_groups()`` with the four-exponent bundle group moved to the
        middle, so that the two-part cut runs through it."""
        groups = cls._groups()
        groups.insert(4, groups.pop(5))
        return groups

    def test_two_parts_match_one_part(self, monkeypatch, forks):
        groups = self._straddling_groups()
        parts = []
        split = convexity._split
        monkeypatch.setattr(convexity, "_split",
                            lambda jobs, iterations: parts.append(split(jobs, iterations)) or parts[-1])
        forked = pair_search(groups, 3, self.EPS, self.BUDGET)
        monkeypatch.setattr(convexity, "_worker_count", lambda: 1)
        serial = pair_search(groups, 3, self.EPS, self.BUDGET)
        assert len(forks) == 1 and [len(p) for p in parts] == [2, 1]
        # the bundle group's searches land on both sides of the cut
        first, second = ({g for (g, _), _ in part} for part in parts[0])
        assert first & second == {4}
        self._assert_identical(forked, serial)
        assert len(serial) == 11

    def test_child_error_raises_in_parent(self, forks):
        parent = os.getpid()
        norm = WeightedLpNorm(3, [1.0, 2.0, 0.5])

        def evaluate(X, counts):
            if os.getpid() != parent:
                raise ValueError("evaluator failed in the child")
            return norm.norm_batch(X)

        group = SearchGroup(evaluate, [structured_pairs(norm)] * 2)
        with pytest.raises(RuntimeError, match="ValueError: evaluator failed in the child"):
            pair_search([group], 3, self.EPS, self.BUDGET)
        assert len(forks) == 1

    def test_parent_error_kills_the_child(self, forks):
        parent = os.getpid()
        norm = WeightedLpNorm(3, [1.0, 2.0, 0.5])

        def evaluate(X, counts):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # the child would outlive the test unless killed
            return norm.norm_batch(X)

        group = SearchGroup(evaluate, [structured_pairs(norm)] * 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            pair_search([group], 3, self.EPS, self.BUDGET)
        assert len(forks) == 1 and time.perf_counter() - t0 < 30

    def test_no_fork_with_another_thread_or_little_work(self, monkeypatch, forks):
        groups = self._straddling_groups()
        expected = pair_search(groups, 3, self.EPS, self.BUDGET)
        assert len(forks) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self._assert_identical(pair_search(groups, 3, self.EPS, self.BUDGET), expected)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.setattr(convexity, "_MIN_FORK_WORK", 10**12)
        self._assert_identical(pair_search(groups, 3, self.EPS, self.BUDGET), expected)
        assert len(forks) == 1

    @pytest.mark.parametrize("env, per_thread", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0"}, None),
        ({}, None),
    ], ids=["openblas-first", "omp", "invalid", "unset"])
    def test_worker_count_leaves_a_cpu_per_blas_thread(self, monkeypatch, env, per_thread):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        cpus = len(os.sched_getaffinity(0))
        expected = 1 if per_thread is None else max(1, cpus // per_thread)
        assert convexity._worker_count() == expected


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
def test_structured_pairs_build_only_the_pairs_kept(dim):
    """The first ``count`` pairs have the bits of the full list's, and the
    sign patterns are normalized only when the axis pairs fall short."""
    spec = WeightedLpNorm(3, np.linspace(0.5, 2.0, dim))
    rows = []

    def counting(X):
        rows.append(len(X))
        return spec.norm_batch(X)

    full = structured_pairs_for_fn(spec.norm_batch, dim)
    for count in (1, 12, max(12, 3 * dim), 200):
        rows.clear()
        kept = structured_pairs_for_fn(counting, dim, count)
        assert len(kept) == min(count, len(full))
        for (v, w), (fv, fw) in zip(kept, full):
            assert np.array_equal(v, fv) and np.array_equal(w, fw)
        axis_pairs = 1 + dim * (dim - 1)
        signs = 2 <= dim <= 6 and count > axis_pairs
        assert rows == [dim, dim] + [2**dim, 2**dim] * signs


def _gauge_of_random_pairs(dim, pairs, seed):
    half = np.random.default_rng(seed).standard_normal((pairs, dim))
    return PolytopeGaugeNorm(np.vstack([half, -half]))


@pytest.mark.parametrize("spec", [
    # 19 axis and sign-pattern pairs, then 141 of the 3160 vertex pairs
    _gauge_of_random_pairs(3, 40, 0),
    # the vertices of the planar polyhedral ball are its unit candidates
    PolyhedralMaxNorm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    PolytopeGaugeNorm([[1.0, 0.5], [-0.3, 1.0], [-1.0, -0.5], [0.3, -1.0]]),
    # no exposed vertices in 3-D for the polyhedral kind, none for l^r
    PolyhedralMaxNorm([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.0], [1.0, 1.0, 1.0]]),
    WeightedLpNorm(3, [1.0, 2.0, 0.5]),
    # axis and sign-pattern pairs alone overflow the cut
    PolytopeGaugeNorm(np.vstack([np.eye(6), -np.eye(6)])),
], ids=["gauge-3x40", "polyhedral-2d", "gauge-2d", "polyhedral-3d", "weighted-lp", "gauge-6d"])
def test_structured_pairs_match_the_nested_loops(spec):
    """The start-pair array holds, bit for bit and in order, the pairs that
    nested loops over the axes, the sign patterns and the exposed vertices
    build."""
    pairs = structured_pairs(spec)
    want = structured_pairs_by_loops(spec)
    assert pairs.shape == (len(want), 2, spec.dimension)
    for pair, (v, w) in zip(pairs, want):
        assert np.array_equal(pair[0], v) and np.array_equal(pair[1], w)
    if spec.dimension in (3, 6) and isinstance(spec, PolytopeGaugeNorm):
        assert len(pairs) == 160


@pytest.mark.parametrize("raw", [
    [0.3, 0.1, 0.1, 0.2, 0.2, 0.5],  # ties and a plateau
    [0.2, 0.0, 0.3, 0.0, 0.5, 0.5, 0.1],  # ties below a later point
    [0.9, 0.7, 0.4, 0.2, 0.1],  # strictly decreasing
    [0.25] * 5,  # all equal
    [1.0, 0.6, 1.0, 1.0],  # values clamped to 1.0
    [0.1, 0.2, 0.3, 0.4],  # already non-decreasing
    [0.4],
], ids=["ties", "ties-below", "decreasing", "all-equal", "clamped-to-one", "increasing", "one"])
def test_isotonic_clamp_matches_the_loop(raw):
    """Two reverse running minima give the loop's values and witnesses: point
    i takes those of the first j >= i where raw[j] is the least of raw[i:]."""
    raw = np.array(raw)
    witnesses = np.random.default_rng(len(raw)).standard_normal((len(raw), 2, 3))
    deltas, wits = convexity._isotonic_clamp(raw, witnesses)
    want, want_wits = isotonic_clamp_by_loop(raw, witnesses)
    assert deltas.tobytes() == want.tobytes()
    assert wits.shape == witnesses.shape
    for got, w in zip(wits, want_wits):
        assert np.array_equal(got, w)


# -- feasibility -----------------------------------------------------------


@pytest.mark.parametrize("spec", [
    InnerProductNorm([[2.0, 0.3], [0.3, 1.0]]),
    InnerProductNorm([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]),
], ids=["ip-2d", "ip-3d"])
def test_the_antipodal_restart_keeps_every_row_feasible(spec):
    """With one restart, whose pair is antipodal, start pairs (e_i, e_j)
    that no inner-product norm separates by 2, and too few iterations for
    their lanes to climb to 2, every witness still meets its separation, and
    the eps = 2 witness is antipodal: for unit v, w the parallelogram
    identity leaves ||v + w||^2 = 4 - ||v - w||^2 <= 4e-9."""
    dim = spec.dimension
    axes = convexity._unit_rows(spec.norm_batch, np.eye(dim))
    i, j = np.triu_indices(dim, 1)
    search = np.stack([axes[i], axes[j]], axis=1)
    assert np.all(spec.norm_batch(search[:, 0] - search[:, 1]) < 2.0 - 1e-3)
    eps = [0.5, 2.0]
    [(raw, witnesses, _)] = pair_search([single_norm_group(spec.norm_batch, search)], dim, eps,
                                        SearchBudget(restarts=1, iterations=3))
    for e, (v, w) in zip(eps, witnesses):
        assert spec.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(w) == pytest.approx(1.0, abs=1e-9)
        assert spec.norm(v - w) >= e - FEASIBILITY_SLACK
    v, w = witnesses[-1]
    assert spec.norm(v + w) <= 1e-4
    assert 1.0 - spec.norm((v + w) / 2) == pytest.approx(raw[-1], abs=1e-12)
