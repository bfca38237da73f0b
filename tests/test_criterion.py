"""Detecting pointwise-induced section norms: restriction additivity,
weak-star continuity, pointwise-norm reconstruction, and the power
inequality for atomic measure triples."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlelab.bundles import Bundle, Fiber, Section, pointwise_norm
from bundlelab import criterion
from bundlelab.criterion import (
    ENUMERATION_CAP,
    SAMPLED_SUBSETS,
    AbstractModuleNorm,
    AtomicMeasureTriple,
    induced_norm,
    measure_inequality_report,
    mixed_max_norm,
    mixed_sum_norm,
    reconstruct_pointwise_norm,
    restriction_additivity_check,
    subset_sums,
    sup_over_atoms_norm,
    weak_star_continuity_check,
)
from bundlelab.measure import MeasureSpace
from bundlelab.norms import InnerProductNorm, PolyhedralMaxNorm, PolytopeGaugeNorm, WeightedLpNorm

from oracles import section_norm_batch


def euclid(dim=2):
    return InnerProductNorm(np.eye(dim))


def line_bundle(weights):
    space = MeasureSpace(list(range(len(weights))), list(weights))
    return Bundle(space, [Fiber(1, euclid(1)) for _ in weights])


def plane_bundle(weights=(1.0, 2.0, 0.5)):
    space = MeasureSpace(list(range(len(weights))), list(weights))
    return Bundle(space, [Fiber(2, euclid()) for _ in weights])


class TestNormCatalogue:
    def test_axioms_pass_for_catalogue(self):
        b = plane_bundle()
        for norm in (
            induced_norm(b, 2),
            sup_over_atoms_norm(b),
            mixed_sum_norm(b, 2, 3),
            mixed_max_norm(b, 2, 3),
        ):
            norm.check_axioms(probes=16, seed=0)

    def test_axiom_check_catches_degenerate_fn(self):
        b = plane_bundle()
        fake = AbstractModuleNorm(b, lambda X: np.zeros(len(X)), "vanishing")
        with pytest.raises(AssertionError, match="vanishing on a nonzero"):
            fake.check_axioms()

    def test_axiom_check_catches_non_homogeneous_fn(self):
        b = plane_bundle()
        norm_batch = section_norm_batch(b, 2)
        fake = AbstractModuleNorm(b, lambda X: norm_batch(X) + 1.0, "shifted")
        with pytest.raises(AssertionError, match="homogeneity"):
            fake.check_axioms()

    def test_evaluate_rejects_foreign_section(self):
        b = plane_bundle()
        other = line_bundle([1.0, 1.0])
        v = Section(other, [[1.0], [1.0]])
        with pytest.raises(ValueError, match="does not live"):
            induced_norm(b, 2).evaluate(v)


def mixed_bundle(atoms=9):
    """Fibers of all four kinds, two atoms sharing a norm, and a
    zero-dimensional fiber; 8 or more atoms make the p-sums sequential."""
    square = [[1.0, 0.5], [-0.3, 1.0], [-1.0, -0.5], [0.3, -1.0]]
    kinds = [
        Fiber(2, InnerProductNorm([[2.0, 0.3], [0.3, 1.0]])),
        Fiber(0),
        Fiber(3, WeightedLpNorm(3, [1.0, 0.5, 2.0])),
        Fiber(2, PolyhedralMaxNorm([[1.0, 0.0], [0.4, 1.0], [1.0, -1.0]])),
        Fiber(2, PolytopeGaugeNorm(square)),
        Fiber(1, WeightedLpNorm(2, [1.5])),
    ]
    weights = np.random.default_rng(atoms).uniform(0.5, 2.0, atoms)
    space = MeasureSpace([f"a{x}" for x in range(atoms)], list(weights))
    return Bundle(space, [kinds[x % len(kinds)] for x in range(atoms)])


def catalogue(b):
    return [induced_norm(b, 1.5), induced_norm(b, 3), sup_over_atoms_norm(b),
            mixed_sum_norm(b, 1.5, 3), mixed_max_norm(b, 2, 3)]


class TestBatchedEvaluation:
    @pytest.mark.parametrize("atoms", [3, 9])
    def test_evaluate_is_its_row_of_any_batch(self, atoms):
        b = mixed_bundle(atoms)
        X = np.random.default_rng(1).standard_normal((24, b.total_dimension))
        for norm in catalogue(b):
            full = norm.evaluate_rows(X)
            assert full.shape == (len(X),)
            for i in range(len(X)):
                assert norm.evaluate(Section.from_coords(b, X[i])) == full[i]
                assert norm.evaluate_rows(X[i : i + 1])[0] == full[i]
            for size in (2, 5, 7):
                parts = [norm.evaluate_rows(X[k : k + size]) for k in range(0, len(X), size)]
                assert np.array_equal(np.concatenate(parts), full)

    def test_catalogue_values(self):
        b = mixed_bundle(6)
        v = Section.from_coords(b, np.random.default_rng(2).standard_normal(b.total_dimension))
        n = pointwise_norm(v).values
        w = b.space.weights
        lp = {p: float(np.sum(w * n**p) ** (1 / p)) for p in (1.5, 2, 3)}
        want = [lp[1.5], lp[3], n.max(), lp[1.5] + lp[3], max(lp[2], lp[3])]
        got = [norm.evaluate(v) for norm in catalogue(b)]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_rows_of_the_wrong_shape_rejected(self):
        b = plane_bundle()
        bad = AbstractModuleNorm(b, lambda X: np.zeros(len(X) + 1), "long")
        with pytest.raises(ValueError, match="rows gave norms of shape"):
            bad.evaluate_rows(np.zeros((2, b.total_dimension)))

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_additivity_report_does_not_depend_on_the_chunk(self, monkeypatch, chunk):
        b = mixed_bundle(6)
        for norm in catalogue(b):
            want = restriction_additivity_check(norm, 2, probes=3, seed=4)
            monkeypatch.setattr(criterion, "_MASK_CHUNK", chunk)
            assert restriction_additivity_check(norm, 2, probes=3, seed=4) == want
            monkeypatch.undo()


def spy_norm(b, p=2):
    """The induced norm, counting the rows of every call it receives."""
    induced = induced_norm(b, p)
    calls = []

    def fn(X):
        calls.append(len(X))
        return induced.evaluate_rows(X)

    return AbstractModuleNorm(b, fn, "spy"), calls


class TestEveryMaskedSectionReachesTheNorm:
    def test_full_enumeration(self):
        b = line_bundle([1.0, 2.0, 0.5, 1.5, 0.7])
        norm, calls = spy_norm(b)
        rep = restriction_additivity_check(norm, 2, probes=3, seed=0)
        assert rep.passed and rep.enumeration == "full"
        # 2 normalisation rows and 2 masked rows per subset for each probe
        assert sum(calls) == 3 * 2 * 2**5 + 2 * 3
        assert max(calls) <= 2 * criterion._MASK_CHUNK

    def test_sampled_beyond_the_cap(self):
        b = line_bundle(np.linspace(0.5, 2.0, 17))
        norm, calls = spy_norm(b)
        rep = restriction_additivity_check(norm, 2, probes=2, seed=0)
        assert rep.passed and rep.enumeration == "sampled"
        assert rep.subsets_checked == 2 * SAMPLED_SUBSETS
        assert sum(calls) == 2 * 2 * SAMPLED_SUBSETS + 2 * 2
        assert max(calls) <= 2 * criterion._MASK_CHUNK

    def test_sixteen_atoms_eight_probes(self):
        b = mixed_bundle(16)
        assert b.space.atom_count == ENUMERATION_CAP
        rep = restriction_additivity_check(induced_norm(b, 2), 2, probes=8, seed=0)
        assert rep.passed and rep.enumeration == "full"
        assert rep.subsets_checked == 8 * 2**16
        rep = restriction_additivity_check(sup_over_atoms_norm(b), 2, probes=8, seed=0)
        assert not rep.passed
        assert rep.witness_probe >= 0 and len(rep.witness_subset) > 0


class TestRestrictionAdditivity:
    def test_induced_norm_passes_with_matching_exponent(self):
        b = plane_bundle()
        for p in (1.5, 2, 3):
            rep = restriction_additivity_check(induced_norm(b, p), p, probes=6, seed=1)
            assert rep.passed
            assert rep.max_residual <= 1e-12
            assert rep.enumeration == "full"

    def test_passing_check_names_no_witness(self):
        b = plane_bundle()
        rep = restriction_additivity_check(induced_norm(b, 2), 2, probes=6, seed=1)
        assert rep.passed and rep.max_residual > 0.0
        assert rep.witness_probe == -1
        assert rep.witness_subset == ()

    def test_sup_norm_residual_is_exactly_one(self):
        # two unit atoms: restricting to either one leaves sup norm 1, so the
        # split reads 1 + 1 - 1 on the unit-normalized probe
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[1.0], [1.0]])
        rep = restriction_additivity_check(sup_over_atoms_norm(b), 2, probes=[v])
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0, abs=1e-12)
        assert len(rep.witness_subset) == 1

    def test_mixed_sum_norm_fails(self):
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[1.0], [1.0]])
        rep = restriction_additivity_check(mixed_sum_norm(b, 2, 3), 2, probes=[v])
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_mixed_max_norm_fails(self):
        b = plane_bundle()
        rep = restriction_additivity_check(mixed_max_norm(b, 1.5, 3), 1.5, probes=6, seed=3)
        assert not rep.passed

    def test_mismatched_exponent_detected_with_witness(self):
        # induced with p=2 but checked at p=3: fails on any probe whose two
        # atoms carry unequal pointwise norms, and the witness subset is kept
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[1.0], [2.0]])
        rep = restriction_additivity_check(induced_norm(b, 2), 3, probes=[v])
        assert not rep.passed
        assert rep.max_residual > 1e-3
        assert rep.witness_probe == 0
        assert len(rep.witness_subset) >= 1

    def test_sampled_enumeration_beyond_cap(self):
        b = line_bundle([1.0] * 6)
        rep = restriction_additivity_check(
            induced_norm(b, 2), 2, probes=2, seed=5, cap=4, samples=64
        )
        assert rep.enumeration == "sampled"
        assert rep.passed
        assert rep.subsets_checked == 64 * 2

    def test_sup_exponent_rejected(self):
        b = line_bundle([1.0, 1.0])
        with pytest.raises(ValueError, match="finite p"):
            restriction_additivity_check(induced_norm(b, 2), math.inf)


class TestWeakStarContinuity:
    def test_families_are_null_and_bounded(self):
        """Step 40 of the three null sequences: the uniform and the
        alternating one are 0.5**40 at every atom, the rotating singleton
        is 0.5**40 at atom 40 mod 3 and 0 elsewhere."""
        fields = criterion._null_fields(3)
        tiny = 0.5**40
        assert fields.tolist() == [[tiny] * 3, [tiny] * 3, [0.0, tiny, 0.0]]
        assert np.max(np.abs(fields)) <= 1e-9
        assert criterion._null_fields(0).shape == (3, 0)

    def test_catalogue_norms_all_pass(self):
        # structural fact on finite atomic spaces: atomwise-null bounded
        # multipliers kill every norm in the catalogue
        b = plane_bundle()
        for norm in (
            induced_norm(b, 2),
            sup_over_atoms_norm(b),
            mixed_sum_norm(b, 1.5, 3),
        ):
            rep = weak_star_continuity_check(norm, probes=4, seed=7)
            assert rep.passed
            assert rep.max_limit_proxy <= 1e-6
            # the uniform field scales the unit probes by 0.5**40, and no
            # field exceeds it at any atom
            assert rep.max_limit_proxy == pytest.approx(0.5**40, rel=1e-12, abs=0.0)


class TestReconstruction:
    def test_scalar_euclid_p2(self):
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[3.0], [4.0]])
        norm = induced_norm(b, 2)
        assert norm.evaluate(v) == pytest.approx(5.0, abs=1e-12)
        rec = reconstruct_pointwise_norm(norm, 2, v)
        assert np.allclose(rec.values, [3.0, 4.0], atol=1e-12)

    def test_mass_weighted_p1(self):
        b = line_bundle([4.0, 1.0])
        v = Section(b, [[1.0], [1.0]])
        norm = induced_norm(b, 1)
        assert norm.evaluate(v) == pytest.approx(5.0, abs=1e-12)
        rec = reconstruct_pointwise_norm(norm, 1, v)
        assert np.allclose(rec.values, [1.0, 1.0], atol=1e-12)

    def test_heterogeneous_fibers_p3(self):
        space = MeasureSpace(["a", "b"], [1.0, 1.0])
        b = Bundle(
            space,
            [
                Fiber(2, WeightedLpNorm(1, [1.0, 1.0])),
                Fiber(2, WeightedLpNorm(math.inf, [1.0, 1.0])),
            ],
        )
        v = Section(b, [[1.0, -2.0], [1.0, -2.0]])
        rec = reconstruct_pointwise_norm(induced_norm(b, 3), 3, v)
        assert np.allclose(rec.values, [3.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_round_trip_random_sections(self, p):
        b = plane_bundle()
        norm = induced_norm(b, p)
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = Section(b, list(rng.standard_normal((3, 2))))
            rec = reconstruct_pointwise_norm(norm, p, v)
            assert np.max(np.abs(rec.values - pointwise_norm(v).values)) <= 1e-9
            recovered = float(np.sum(b.space.weights * rec.values ** float(p)))
            assert recovered == pytest.approx(norm.evaluate(v) ** float(p), abs=1e-9)

    def test_refusal_on_non_additive_norm(self):
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[1.0], [1.0]])
        with pytest.raises(ValueError, match="reconstruction refused"):
            reconstruct_pointwise_norm(sup_over_atoms_norm(b), 2, v)

    def test_sup_exponent_rejected(self):
        b = line_bundle([1.0, 1.0])
        v = Section(b, [[1.0], [1.0]])
        with pytest.raises(ValueError, match="finite p"):
            reconstruct_pointwise_norm(induced_norm(b, 2), math.inf, v)


class TestSubsetSums:
    def test_two_atoms_by_hand(self):
        out = subset_sums(np.array([2.0, 5.0]))
        assert np.allclose(out, [0.0, 2.0, 5.0, 7.0])

    @settings(max_examples=40, deadline=None)
    @given(
        masses=st.lists(st.floats(0, 10, allow_nan=False), min_size=0, max_size=6)
    )
    def test_matches_explicit_enumeration(self, masses):
        masses = np.asarray(masses, dtype=float)
        out = subset_sums(masses)
        assert len(out) == 2 ** len(masses)
        for idx in range(len(out)):
            members = [masses[i] for i in range(len(masses)) if (idx >> i) & 1]
            assert out[idx] == pytest.approx(math.fsum(members), abs=1e-9)


class TestMeasureTriple:
    def make(self, d1, d2, d3, alpha, weights=None):
        w = [1.0] * len(d1) if weights is None else weights
        space = MeasureSpace(list(range(len(d1))), w)
        return AtomicMeasureTriple(space, d1, d2, d3, alpha)

    def test_worked_example(self):
        t = self.make([4.0, 1.0], [1.0, 1.0], [1.0, 0.0], 0.5)
        rep = measure_inequality_report(t)
        assert rep.set_level_holds and rep.density_level_holds
        assert not rep.implication_violated
        assert rep.subsets_checked == 4
        # equality is attained on the singletons, so both margins are exactly 0
        assert rep.max_set_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.max_density_margin == pytest.approx(0.0, abs=1e-12)

    def test_mu2_equals_mu1(self):
        for alpha in (0.25, 1.0, 3.0):
            t = self.make([2.0, 3.0], [2.0, 3.0], [0.0, 0.0], alpha)
            rep = measure_inequality_report(t)
            assert rep.set_level_holds and rep.density_level_holds
            assert not rep.implication_violated

    def test_linear_split_alpha_one(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d2 = rng.uniform(0, 3, 4)
            d3 = rng.uniform(0, 3, 4)
            t = self.make(d2 + d3, d2, d3, 1.0, weights=list(rng.uniform(0.5, 2, 4)))
            rep = measure_inequality_report(t)
            assert rep.set_level_holds and rep.density_level_holds

    def test_set_level_can_fail(self):
        t = self.make([4.0], [1.0], [0.5], 1.0)
        rep = measure_inequality_report(t)
        assert not rep.set_level_holds
        assert rep.witness_subset == (0,)
        assert rep.max_set_margin == pytest.approx(2.5, abs=1e-12)

    def test_atom_cap(self):
        n = 21
        space = MeasureSpace(list(range(n)), [1.0] * n)
        t = AtomicMeasureTriple(space, np.ones(n), np.ones(n), np.ones(n), 1.0)
        with pytest.raises(ValueError, match="capped at 20"):
            measure_inequality_report(t)

    def test_validation(self):
        space = MeasureSpace([0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="one value per atom"):
            AtomicMeasureTriple(space, [1.0], [1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            AtomicMeasureTriple(space, [1.0, -1.0], [1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            AtomicMeasureTriple(space, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 0.0)


@settings(max_examples=30, deadline=None)
@given(
    d=st.lists(st.floats(0.01, 5, allow_nan=False), min_size=3, max_size=3),
    alpha=st.floats(0.2, 2.0, allow_nan=False),
)
def test_implication_never_flags_when_set_level_holds(d, alpha):
    """Whenever the subset-level power inequality holds, the atom-level one
    must hold as well: the implication flag never fires."""
    space = MeasureSpace([0, 1, 2], [1.0, 0.5, 2.0])
    rng_like = np.asarray(d)
    t = AtomicMeasureTriple(space, rng_like, rng_like * 0.8, rng_like * 0.7, alpha)
    rep = measure_inequality_report(t)
    assert not rep.implication_violated
