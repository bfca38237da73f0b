"""Bundles over finite atomic measure spaces: sections, pointwise norms,
weighted p-norms, module action, and fiber and section modulus curves."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlelab import convexity
from bundlelab.bundles import (
    Bundle,
    Fiber,
    Section,
    _section_norms,
    module_action,
    parallelogram_residual,
    pointwise_norm,
    section_lp_norm,
    section_modulus_curve,
    section_modulus_curves,
)
from bundlelab.convexity import SearchBudget
from bundlelab.measure import MeasureSpace, ScalarField
from bundlelab.norms import (
    InnerProductNorm,
    PolyhedralMaxNorm,
    PolytopeGaugeNorm,
    WeightedLpNorm,
)

from oracles import section_norm_batch


def euclid(dim=2):
    return InnerProductNorm(np.eye(dim))


def two_atom_euclid(weights=(1.0, 1.0)):
    space = MeasureSpace(["a", "b"], list(weights))
    return Bundle(space, [Fiber(2, euclid()), Fiber(2, euclid())])


class TestFiberValidation:
    def test_negative_dimension(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Fiber(-1, euclid())

    def test_zero_dim_with_norm(self):
        with pytest.raises(ValueError, match="no norm"):
            Fiber(0, euclid())

    def test_positive_dim_without_norm(self):
        with pytest.raises(ValueError, match="need a norm"):
            Fiber(2, None)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Fiber(3, euclid(2))


class TestBundle:
    def test_fiber_count_must_match_atoms(self):
        space = MeasureSpace(["a", "b"], [1.0, 1.0])
        with pytest.raises(ValueError, match="one fiber per atom"):
            Bundle(space, [Fiber(2, euclid())])

    def test_total_dimension_and_degeneracy(self):
        space = MeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
        b = Bundle(space, [Fiber(2, euclid()), Fiber(0), Fiber(1, euclid(1))])
        assert b.total_dimension == 3
        assert not b.degenerate
        z = Bundle(space, [Fiber(0), Fiber(0), Fiber(0)])
        assert z.degenerate

    def test_is_constant(self):
        assert two_atom_euclid().is_constant
        space = MeasureSpace(["a", "b"], [1.0, 1.0])
        mixed = Bundle(space, [Fiber(2, euclid()), Fiber(2, WeightedLpNorm(1, [1.0, 1.0]))])
        assert not mixed.is_constant

    def test_dual_is_cached_and_correct(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, WeightedLpNorm(3, [1.0, 2.0]))])
        assert b.dual() is b.dual()
        assert float(b.dual().fibers[0].norm.r) == pytest.approx(1.5)


class TestSection:
    def test_wrong_vector_count(self):
        with pytest.raises(ValueError, match="one vector per atom"):
            Section(two_atom_euclid(), [[1.0, 0.0]])

    def test_wrong_shape_names_the_atom(self):
        with pytest.raises(ValueError, match="atom index 1"):
            Section(two_atom_euclid(), [[1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Section(two_atom_euclid(), [[1.0, 0.0], [np.nan, 0.0]])

    def test_arithmetic(self):
        b = two_atom_euclid()
        s = Section(b, [[3.0, 4.0], [1.0, 0.0]])
        t = Section(b, [[1.0, 1.0], [0.0, 2.0]])
        assert np.allclose((s + t).vectors[0], [4.0, 5.0])
        assert np.allclose((s - t).vectors[1], [1.0, -2.0])
        assert np.allclose(s.scale(0.5).vectors[0], [1.5, 2.0])

    def test_copy_is_independent(self):
        """``Section(bundle, vectors)`` copies the vectors it is given (unlike
        ``from_coords``), so later writes to them leave the section alone."""
        b = two_atom_euclid()
        given = [np.array([3.0, 4.0]), np.array([1.0, 0.0])]
        s = Section(b, given)
        given[0][0] = 99.0
        assert s.vectors[0].tolist() == [3.0, 4.0]

    def test_flat_coords_and_views(self):
        space = MeasureSpace(["a", "b", "c"], [1.0, 1.0, 1.0])
        b = Bundle(space, [Fiber(2, euclid()), Fiber(0), Fiber(1, euclid(1))])
        assert b.offsets.tolist() == [0, 2, 2, 3]
        s = Section(b, [[3.0, 4.0], [], [2.0]])
        assert s.coords.tolist() == [3.0, 4.0, 2.0]
        assert [v.tolist() for v in s.vectors] == [[3.0, 4.0], [], [2.0]]
        s.vectors[0] *= 2.0
        assert s.coords.tolist() == [6.0, 8.0, 2.0]
        assert pointwise_norm(s).values.tolist() == [10.0, 0.0, 2.0]

    def test_from_coords_uses_the_array_and_validates_it(self):
        b = two_atom_euclid()
        flat = np.array([1.0, 2.0, 3.0, 4.0])
        s = Section.from_coords(b, flat)
        assert s.coords is flat
        assert s.vectors[1].tolist() == [3.0, 4.0]
        with pytest.raises(ValueError, match="flat section of length 4"):
            Section.from_coords(b, np.zeros(3))
        with pytest.raises(ValueError, match="atom index 1 must be finite"):
            Section.from_coords(b, [0.0, 0.0, np.inf, 0.0])

    def test_cross_space_arithmetic_rejected(self):
        s = Section(two_atom_euclid(), [[1.0, 0.0], [0.0, 1.0]])
        other_space = MeasureSpace(["x", "y"], [2.0, 1.0])
        other = Bundle(other_space, [Fiber(2, euclid()), Fiber(2, euclid())])
        t = Section(other, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            s + t


class TestPointwiseNorm:
    def test_hand_values(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [0.0, 0.0]])
        assert np.allclose(pointwise_norm(v).values, [5.0, 0.0])

    def test_l1_fiber(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, WeightedLpNorm(1, [1.0, 1.0]))])
        v = Section(b, [[1.0, -2.0]])
        assert np.allclose(pointwise_norm(v).values, [3.0])

    def test_zero_fiber_contributes_zero(self):
        space = MeasureSpace(["a", "b"], [1.0, 1.0])
        b = Bundle(space, [Fiber(2, euclid()), Fiber(0)])
        v = Section(b, [[3.0, 4.0], []])
        assert np.allclose(pointwise_norm(v).values, [5.0, 0.0])


class TestSectionNorm:
    def test_p2_hand_value(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [0.0, 0.0]])
        assert section_lp_norm(v, 2) == pytest.approx(5.0, abs=1e-12)

    def test_p2_frozen_value(self):
        # pointwise norms [5, 4] with unit weights: sqrt(25 + 16) = sqrt(41)
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [0.0, 4.0]])
        assert section_lp_norm(v, 2) == pytest.approx(6.4031242374328485, abs=1e-12)

    def test_p1_weighted(self):
        space = MeasureSpace(["a", "b"], [2.0, 0.5])
        b = Bundle(space, [Fiber(1, euclid(1)), Fiber(1, euclid(1))])
        v = Section(b, [[1.0], [2.0]])
        assert section_lp_norm(v, 1) == pytest.approx(3.0, abs=1e-12)

    def test_p_inf(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [5.0, 12.0]])
        assert section_lp_norm(v, math.inf) == pytest.approx(13.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, math.inf])
def test_section_norm_fn_matches_per_row_formula(p):
    """(sum_x w_x N_x(v_x)^p)^(1/p), or max_x N_x(v_x), row by row."""
    space = MeasureSpace(["a", "b", "c", "d", "e"], [1.0, 2.0, 0.5, 1.5, 0.7])
    square = [[1.0, 0.5], [-0.3, 1.0], [-1.0, -0.5], [0.3, -1.0]]
    b = Bundle(
        space,
        [
            Fiber(2, InnerProductNorm([[2.0, 0.3], [0.3, 1.0]])),
            Fiber(0),
            Fiber(3, WeightedLpNorm(3, [1.0, 0.5, 2.0])),
            Fiber(2, PolyhedralMaxNorm([[1.0, 0.0], [0.4, 1.0], [1.0, -1.0]])),
            Fiber(2, PolytopeGaugeNorm(square)),
        ],
    )
    norm_batch = section_norm_batch(b, p)
    X = np.random.default_rng(4).standard_normal((31, b.total_dimension))
    live = [x for x, f in enumerate(b.fibers) if f.dimension]
    want = []
    for row in X:
        v = Section.from_coords(b, row)
        n = {x: b.fibers[x].norm.norm(v.vectors[x]) for x in live}
        if p == math.inf:
            want.append(max(n.values()))
        else:
            want.append(sum(space.weights[x] * n[x] ** p for x in live) ** (1 / p))
    assert np.allclose(norm_batch(X), want, rtol=1e-12, atol=0.0)
    assert norm_batch(X[3]) == pytest.approx([want[3]], rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("atoms", range(8, 13))
def test_section_norms_are_row_independent(atoms, p):
    """With 8 or more atoms, a row's section norm has the same bits alone,
    as the one lane of an exponent in a block, and inside a batch."""
    rng = np.random.default_rng(atoms)
    shared = WeightedLpNorm(3, [1.0, 0.5])
    fibers = [Fiber(2, shared) if x % 3 == 0 else Fiber(1, WeightedLpNorm(2, [rng.uniform(0.5, 2.0)]))
              for x in range(atoms)]
    b = Bundle(MeasureSpace([f"a{x}" for x in range(atoms)], rng.uniform(0.5, 2.0, atoms)), fibers)
    norm_batch = section_norm_batch(b, p)
    X = rng.standard_normal((20, b.total_dimension))
    full = norm_batch(X)
    evaluate = _section_norms(b, [p, p])
    for i in range(len(X)):
        assert norm_batch(X[i : i + 1])[0] == full[i]
        # row i alone in the first exponent's lane, the rest in the second;
        # a second slab of the block holds the rows in reverse order
        rows = np.vstack([X[i : i + 1], np.delete(X, i, axis=0)])
        assert evaluate(rows[None], [1, len(X) - 1])[0, 0] == full[i]
        block = evaluate(np.stack([rows, rows[::-1]]), [1, len(X) - 1])
        assert block[0, 0] == block[1, -1] == full[i]


class TestModuleAction:
    def test_indicator_field(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [1.0, 0.0]])
        out = module_action([0.0, 1.0], v)
        assert np.allclose(out.vectors[0], [0.0, 0.0])
        assert np.allclose(out.vectors[1], [1.0, 0.0])

    def test_constant_one_is_identity(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [1.0, 0.0]])
        out = module_action(np.ones(2), v)
        for a, c in zip(v.vectors, out.vectors):
            assert np.array_equal(a, c)

    def test_negative_scalar_doubles_norm(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, euclid())])
        v = Section(b, [[1.0, 1.0]])
        out = module_action([-2.0], v)
        assert np.allclose(out.vectors[0], [-2.0, -2.0])
        assert pointwise_norm(out).values[0] == pytest.approx(
            2.0 * pointwise_norm(v).values[0], abs=1e-12
        )

    def test_pointwise_norm_is_multiplicative(self):
        """|f.v| = |f| |v| holds atom by atom, exactly."""
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [1.0, 2.0]])
        f = np.array([0.5, -3.0])
        lhs = pointwise_norm(module_action(f, v)).values
        rhs = np.abs(f) * pointwise_norm(v).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_scalar_field_input_and_space_check(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [1.0, 0.0]])
        f = ScalarField(b.space, np.array([2.0, 0.0]))
        assert np.allclose(module_action(f, v).vectors[0], [6.0, 8.0])
        other = ScalarField(MeasureSpace(["x", "y"], [1.0, 1.0]), np.ones(2))
        with pytest.raises(ValueError, match="different measure spaces"):
            module_action(other, v)

    def test_wrong_length(self):
        b = two_atom_euclid()
        v = Section(b, [[3.0, 4.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="one value per atom"):
            module_action([1.0], v)


class TestRestriction:
    def test_restriction_additivity_exact(self):
        b = two_atom_euclid((2.0, 0.5))
        v = Section(b, [[3.0, 4.0], [1.0, 2.0]])
        for p in (1, 1.5, 2, 3):
            whole = section_lp_norm(v, p) ** float(p)
            part = section_lp_norm(module_action([1.0, 0.0], v), p) ** float(p)
            rest = section_lp_norm(module_action([0.0, 1.0], v), p) ** float(p)
            assert part + rest == pytest.approx(whole, abs=1e-12)


class TestSectionModulus:
    def test_constant_euclid_p2_matches_closed_form(self):
        b = two_atom_euclid((1.0, 2.0))
        [[curve]] = section_modulus_curves(
            [b], [2], [0.5, 1.0, 1.5], SearchBudget(restarts=4, iterations=20),
            SearchBudget(restarts=10, iterations=50))
        target = np.array([1.0 - math.sqrt(1.0 - (e / 2.0) ** 2) for e in curve.epsilons])
        assert np.max(np.abs(curve.deltas - target)) <= 2e-3

    # three bundles of total dimension 4, so that all their searches meet in
    # one kernel call, each bundle's two exponents in one evaluator block
    EPS = [0.5, 1.5, 2.0]
    BUDGET = SearchBudget(restarts=4, iterations=40, min_step=1e-4)
    EXPONENTS = [1.5, 3]

    @staticmethod
    def _block_bundles():
        square = np.array([[1.0, 0.2], [0.1, 1.0], [-1.0, -0.2], [-0.1, -1.0]])
        constant = Bundle(MeasureSpace(["a", "b"], [0.6, 1.7]),
                          [Fiber(2, WeightedLpNorm(3, [1.0, 2.0]))] * 2)
        with_zero = Bundle(MeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.0]),
                           [Fiber(2, InnerProductNorm([[2.0, 0.3], [0.3, 1.0]])), Fiber(0),
                            Fiber(2, PolytopeGaugeNorm(square))])
        mixed = Bundle(MeasureSpace(["a", "b"], [1.3, 0.8]),
                       [Fiber(1, WeightedLpNorm(2, [1.3])),
                        Fiber(3, PolyhedralMaxNorm([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3],
                                                    [0.4, 0.0, 1.0], [1.0, 1.0, 1.0]]))])
        return [constant, with_zero, mixed]

    @staticmethod
    def _curve_bits(curves) -> list:
        """Raw and clamped deltas, witnesses and search counters of each curve."""
        return [(c.raw_deltas.tobytes(), c.deltas.tobytes(),
                 b"".join(v.tobytes() + w.tobytes() for v, w in c.witnesses), c.meta["search"])
                for c in curves]

    def test_multi_search_blocks_keep_every_bit(self, monkeypatch):
        """Each bundle's exponents share one evaluator block.  Run in several
        lockstep batches, split over a forked child, or one (bundle,
        exponent) at a time, every curve has the same bits, and those bits
        are pinned."""
        bundles = self._block_bundles()
        batches = []
        search_batch = convexity._search_batch
        monkeypatch.setattr(convexity, "_search_batch",
                            lambda groups, batch, *args: batches.append(len(batch))
                            or search_batch(groups, batch, *args))

        def run():
            curves = section_modulus_curves(bundles, self.EXPONENTS, self.EPS, self.BUDGET)
            return [c for per_bundle in curves for c in per_bundle]

        monkeypatch.setattr(convexity, "_worker_count", lambda: 1)
        monkeypatch.setattr(convexity, "_MAX_LANE_COORDS", 500)
        several = run()
        # the section searches of one kernel call took several batches
        assert len(batches) > 3 and max(batches) < len(bundles) * len(self.EXPONENTS)

        monkeypatch.undo()
        monkeypatch.setattr(convexity, "_worker_count", lambda: 2)
        monkeypatch.setattr(convexity, "_MIN_FORK_WORK", 0)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        split = run()
        assert len(forks) == 2  # one for the fiber searches, one for the sections
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

        monkeypatch.undo()
        alone = [section_modulus_curve(b, p, self.EPS, self.BUDGET)
                 for b in bundles for p in self.EXPONENTS]
        expected = self._curve_bits(alone)
        assert self._curve_bits(several) == expected
        assert self._curve_bits(split) == expected
        assert any(c.meta["search"]["repaired"] for c in alone)
        h = hashlib.sha256()
        for raw, deltas, witnesses, _ in expected:
            h.update(raw + deltas + witnesses)
        assert h.hexdigest() == "d35bd6c0ecb1461961f578c21325c438f7eec8b4a5da9eb84150d81166b9fecb"

    def test_degenerate_bundle_rejected(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(0)])
        with pytest.raises(ValueError, match="degenerate"):
            section_modulus_curve(b, 2)


class TestParallelogramResidual:
    def test_hilbert_residual_small(self):
        b = two_atom_euclid((1.0, 2.0))
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = Section(b, list(rng.standard_normal((2, 2))))
            w = Section(b, list(rng.standard_normal((2, 2))))
            assert parallelogram_residual(v, w) <= 1e-9

    def test_flat_fiber_residual_large(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, WeightedLpNorm(1, [1.0, 1.0]))])
        v = Section(b, [[1.0, 0.0]])
        w = Section(b, [[0.0, 1.0]])
        assert parallelogram_residual(v, w) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    coords=st.lists(
        st.floats(-4, 4, allow_nan=False), min_size=8, max_size=8
    ),
    p=st.sampled_from([1.5, 2, 3]),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_gamma_p_norm_axioms(coords, p, t):
    b = two_atom_euclid((2.0, 0.5))
    v = Section(b, [coords[0:2], coords[2:4]])
    w = Section(b, [coords[4:6], coords[6:8]])
    nv = section_lp_norm(v, p)
    assert section_lp_norm(v.scale(t), p) == pytest.approx(abs(t) * nv, rel=1e-9, abs=1e-9)
    assert section_lp_norm(v + w, p) <= nv + section_lp_norm(w, p) + 1e-9
    if nv <= 1e-15:
        assert all(np.allclose(x, 0.0, atol=1e-12) for x in v.vectors)


@settings(max_examples=25, deadline=None)
@given(
    coords=st.lists(st.floats(-4, 4, allow_nan=False), min_size=4, max_size=4),
    f0=st.floats(-2, 2, allow_nan=False),
    f1=st.floats(-2, 2, allow_nan=False),
    p=st.sampled_from([1.5, 2, 3]),
)
def test_module_compatibility_bound(coords, f0, f1, p):
    """|| f.v ||_p <= (sup |f|) ||v||_p, with equality for constant f."""
    b = two_atom_euclid((2.0, 0.5))
    v = Section(b, [coords[0:2], coords[2:4]])
    f = np.array([f0, f1])
    lhs = section_lp_norm(module_action(f, v), p)
    assert lhs <= np.max(np.abs(f)) * section_lp_norm(v, p) + 1e-9
    const = module_action(np.full(2, f0), v)
    assert section_lp_norm(const, p) == pytest.approx(
        abs(f0) * section_lp_norm(v, p), rel=1e-9, abs=1e-9
    )
