"""Dual sections, pairings, operator norms, and the bidual diagram."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundlelab import duality
from bundlelab.bundles import (
    Bundle,
    Fiber,
    Section,
    pointwise_norm,
    section_lp_norm,
)
from bundlelab.duality import (
    check_reflexivity_diagram,
    holder_maximizer,
    integrated_pairing,
    operator_norm,
    pairing_field,
)
from bundlelab.generators import InstanceRecipe, instance_rng, random_bundle, random_section
from bundlelab.measure import MeasureSpace, conjugate_exponent, lp_norm
from bundlelab.norms import InnerProductNorm, WeightedLpNorm

from oracles import bidual_pointwise_norm, maximize_linear_on_sphere, section_norm_batch


def euclid(dim=2):
    return InnerProductNorm(np.eye(dim))


def scalar_line_bundle(weights=(1.0, 1.0)):
    space = MeasureSpace(list(range(len(weights))), list(weights))
    return Bundle(space, [Fiber(1, euclid(1)) for _ in weights])


def wlp3_bundle():
    space = MeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.5])
    spec = WeightedLpNorm(3, [1.0, 1.5])
    return Bundle(space, [Fiber(2, spec) for _ in range(3)])


class TestDualPointwiseNorm:
    def test_absolute_value_fibers(self):
        b = scalar_line_bundle()
        omega = Section(b.dual(), [[3.0], [-4.0]])
        assert np.allclose(pointwise_norm(omega).values, [3.0, 4.0])

    def test_l1_fiber_dualizes_to_sup(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, WeightedLpNorm(1, [1.0, 1.0]))])
        omega = Section(b.dual(), [[1.0, -2.0]])
        assert np.allclose(pointwise_norm(omega).values, [2.0])

    def test_zero_covectors(self):
        b = wlp3_bundle()
        omega = Section(b.dual(), [np.zeros(2)] * 3)
        assert np.all(pointwise_norm(omega).values == 0.0)


class TestDualBundle:
    def test_dual_of_dual_is_the_bundle(self):
        b = wlp3_bundle()
        assert b.dual() is not b
        assert b.dual().dual() is b
        assert b.dual().dual().dual() is b.dual()
        omega = Section(b.dual(), [[1.0, 0.5], np.zeros(2), [0.0, 2.0]])
        assert holder_maximizer(omega, 2).bundle is b


class TestPairing:
    def test_hand_values(self):
        space = MeasureSpace(["a", "b"], [1.0, 1.0])
        b = Bundle(space, [Fiber(2, euclid()), Fiber(2, euclid())])
        omega = Section(b.dual(), [[1.0, 0.0], [0.0, 1.0]])
        v = Section(b, [[3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(pairing_field(omega, v).values, [3.0, 6.0])

    def test_single_atom(self):
        b = scalar_line_bundle((1.0,))
        omega = Section(b.dual(), [[2.0]])
        v = Section(b, [[3.0]])
        assert np.allclose(pairing_field(omega, v).values, [6.0])

    def test_evaluation_is_symmetric_and_bilinear(self):
        b = wlp3_bundle()
        rng = np.random.default_rng(3)
        v = Section(b, list(rng.standard_normal((3, 2))))
        omega = Section(b.dual(), list(rng.standard_normal((3, 2))))
        assert np.array_equal(
            pairing_field(omega, v).values, pairing_field(v, omega).values
        )
        doubled = pairing_field(v.scale(2.0), omega).values
        assert np.allclose(doubled, 2.0 * pairing_field(v, omega).values, atol=1e-12)

    def test_either_order_gives_the_same_bits(self):
        space = MeasureSpace(["a", "b", "c"], [1.0, 0.3, 2.0])
        b = Bundle(space, [Fiber(3, euclid(3)), Fiber(0), Fiber(2, WeightedLpNorm(3, [1.0, 1.5]))])
        rng = np.random.default_rng(29)
        for _ in range(20):
            v = Section(b, [rng.standard_normal(d) for d in b.dimensions])
            omega = Section(b.dual(), [rng.standard_normal(d) for d in b.dimensions])
            assert np.array_equal(pairing_field(omega, v).values, pairing_field(v, omega).values)
            assert integrated_pairing(omega, v) == integrated_pairing(v, omega)

    def test_integrated_pairing_hand_value(self):
        b = scalar_line_bundle()
        v = Section(b, [[3.0], [4.0]])
        omega = Section(b.dual(), [[1.0], [1.0]])
        assert integrated_pairing(omega, v) == pytest.approx(7.0, abs=1e-12)
        assert integrated_pairing(omega, Section(b, [[0.0], [0.0]])) == 0.0

    def test_mismatched_bundles_rejected(self):
        b = scalar_line_bundle()
        other = Bundle(b.space, [Fiber(2, euclid()), Fiber(2, euclid())])
        omega = Section(other.dual(), [[1.0, 0.0], [0.0, 1.0]])
        v = Section(b, [[3.0], [4.0]])
        with pytest.raises(ValueError, match="different bundles"):
            pairing_field(omega, v)


class TestOperatorNorm:
    def test_scalar_fibers_p2(self):
        b = scalar_line_bundle()
        omega = Section(b.dual(), [[3.0], [4.0]])
        assert operator_norm(omega, 2) == pytest.approx(5.0, abs=1e-9)

    def test_zero_functional(self):
        b = wlp3_bundle()
        omega = Section(b.dual(), [np.zeros(2)] * 3)
        assert operator_norm(omega, 2) == 0.0

    def test_single_atom_l1_fiber(self):
        space = MeasureSpace(["a"], [1.0])
        b = Bundle(space, [Fiber(2, WeightedLpNorm(1, [1.0, 1.0]))])
        omega = Section(b.dual(), [[1.0, -2.0]])
        assert operator_norm(omega, 2) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_isometry_with_dual_lq_norm(self, p):
        b = wlp3_bundle()
        rng = np.random.default_rng(11)
        q = conjugate_exponent(p)
        for _ in range(5):
            omega = Section(b.dual(), list(rng.standard_normal((3, 2))))
            lhs = operator_norm(omega, p)
            rhs = lp_norm(pointwise_norm(omega), q)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_against_sphere_search(self):
        """Dual route: maximize the integrated pairing over the section-space
        sphere with a derivative-free search and compare to the closed form."""
        b = wlp3_bundle()
        rng = np.random.default_rng(5)
        omega = Section(b.dual(), list(rng.standard_normal((3, 2))))
        coeffs = np.concatenate(
            [w * o for w, o in zip(b.space.weights, omega.vectors)]
        )
        searched, _ = maximize_linear_on_sphere(section_norm_batch(b, 2), b.total_dimension,
                                                coeffs)
        closed = operator_norm(omega, 2)
        assert searched <= closed + 1e-9
        assert closed - searched <= 1e-6

    @pytest.mark.parametrize(
        "p,msg",
        [(1, r"\(1, inf\)"), (math.inf, r"\(1, inf\)"), (0.5, "p >= 1")],
    )
    def test_exponent_guard(self, p, msg):
        b = scalar_line_bundle()
        omega = Section(b.dual(), [[1.0], [1.0]])
        with pytest.raises(ValueError, match=msg):
            operator_norm(omega, p)


class TestHolderMaximizer:
    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_attainment(self, p):
        b = wlp3_bundle()
        rng = np.random.default_rng(7)
        omega = Section(b.dual(), list(rng.standard_normal((3, 2))))
        vstar = holder_maximizer(omega, p)
        assert section_lp_norm(vstar, p) == pytest.approx(1.0, abs=1e-9)
        assert integrated_pairing(omega, vstar) == pytest.approx(
            operator_norm(omega, p), abs=1e-12
        )

    def test_zero_functional_gives_zero_section(self):
        b = wlp3_bundle()
        omega = Section(b.dual(), [np.zeros(2)] * 3)
        vstar = holder_maximizer(omega, 2)
        assert section_lp_norm(vstar, 2) == 0.0

    def test_supported_only_where_omega_lives(self):
        b = wlp3_bundle()
        omega = Section(b.dual(), [[1.0, 0.5], np.zeros(2), np.zeros(2)])
        vstar = holder_maximizer(omega, 2)
        assert np.all(vstar.vectors[1] == 0.0) and np.all(vstar.vectors[2] == 0.0)


class TestThetaIsometry:
    @pytest.mark.parametrize("q", [1.5, 2, 3])
    def test_sections_act_on_duals_isometrically(self, q):
        b = wlp3_bundle()
        rng = np.random.default_rng(13)
        p = conjugate_exponent(q)
        for _ in range(5):
            v = Section(b, list(rng.standard_normal((3, 2))))
            assert operator_norm(v, q) == pytest.approx(
                section_lp_norm(v, p), abs=1e-6
            )

    def test_holder_maximizer_of_a_section_contract(self):
        """At q = 2 the Holder magnitudes are the pointwise norms of v over
        its L^2 norm; dividing them out leaves the norming covectors: unit
        dual vectors pairing with v to its pointwise norm."""
        b = wlp3_bundle()
        rng = np.random.default_rng(17)
        v = Section(b, list(rng.standard_normal((3, 2))))
        vstar = holder_maximizer(v, 2)
        assert vstar.bundle is b.dual()
        c = pointwise_norm(v).values / section_lp_norm(v, 2)
        assert np.allclose(pointwise_norm(vstar).values, c, atol=1e-9)
        norming = Section(b.dual(), [u / m for u, m in zip(vstar.vectors, c)])
        paired = pairing_field(norming, v).values
        assert np.allclose(paired, pointwise_norm(v).values, atol=1e-9)
        assert np.allclose(pointwise_norm(norming).values, 1.0, atol=1e-9)


class TestBidual:
    def test_bidual_norm_matches_pointwise_norm(self):
        b = wlp3_bundle()
        rng = np.random.default_rng(19)
        for _ in range(10):
            v = Section(b, list(rng.standard_normal((3, 2))))
            gap = np.abs(bidual_pointwise_norm(v).values - pointwise_norm(v).values)
            assert np.max(gap) <= 1e-9

    def test_diagram_on_constant_bundle(self):
        rep = check_reflexivity_diagram(wlp3_bundle(), 2, samples=50, seed=1)
        assert rep.passed and not rep.degenerate
        assert rep.constant_chain_checked
        assert rep.max_pairing_residual <= 1e-9
        assert rep.max_bidual_norm_gap <= 1e-6
        assert rep.max_constant_chain_residual <= 1e-9

    def test_diagram_on_mixed_bundle(self):
        space = MeasureSpace(["a", "b"], [1.0, 2.0])
        b = Bundle(space, [Fiber(2, euclid()), Fiber(1, euclid(1))])
        rep = check_reflexivity_diagram(b, 1.5, samples=40, seed=2)
        assert rep.passed
        assert not rep.constant_chain_checked

    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "mixed"])
    def test_diagram_fails_with_a_dropped_atom(self, monkeypatch, constant):
        """Atomwise pairings that lose one atom break both diagram rows."""
        if constant:
            b = wlp3_bundle()
        else:
            space = MeasureSpace(["a", "b"], [1.0, 2.0])
            b = Bundle(space, [Fiber(2, euclid()), Fiber(1, euclid(1))])
        assert check_reflexivity_diagram(b, 2, samples=10, seed=4).passed

        route_one = duality._pairing_rows

        def dropped(bundle, A, B):
            P = route_one(bundle, A, B)
            P[-1] = 0.0
            return P

        monkeypatch.setattr(duality, "_pairing_rows", dropped)
        rep = check_reflexivity_diagram(b, 2, samples=10, seed=4)
        assert not rep.passed
        assert rep.max_pairing_residual > 1e-9
        if constant:
            assert rep.max_constant_chain_residual > 1e-9

    def test_diagram_degenerate_bundle(self):
        space = MeasureSpace(["a", "b"], [1.0, 2.0])
        b = Bundle(space, [Fiber(0), Fiber(0)])
        rep = check_reflexivity_diagram(b, 2, samples=10, seed=3)
        assert rep.degenerate and rep.passed
        assert any("vacuous" in n for n in rep.notes)


@settings(max_examples=30, deadline=None)
@given(
    vc=st.lists(st.floats(-3, 3, allow_nan=False), min_size=6, max_size=6),
    oc=st.lists(st.floats(-3, 3, allow_nan=False), min_size=6, max_size=6),
    p=st.sampled_from([1.5, 2, 3]),
)
# subnormal covectors: the fiber maximizer's norm underflowed to zero, and
# the Holder magnitudes to 0/0
@example(vc=[0.0] * 6, oc=[0.0, 0.0, 0.0, 0.0, 0.0, 8.98e-291], p=1.5)
@example(vc=[0.0] * 6, oc=[0.0, 0.0, 0.0, 0.0, 0.0, 1.67e-176], p=1.5)
def test_holder_inequality_property(vc, oc, p):
    b = wlp3_bundle()
    v = Section(b, [vc[0:2], vc[2:4], vc[4:6]])
    omega = Section(b.dual(), [oc[0:2], oc[2:4], oc[4:6]])
    lhs = abs(integrated_pairing(omega, v))
    assert lhs <= operator_norm(omega, p) * section_lp_norm(v, p) + 1e-9


# SHA-256 of operator norms in both directions, the Holder maximizers'
# coordinates and the diagram residuals on a fixed seeded set of bundles
# with every norm kind, zero-dimensional fibers and constant bundles.  It
# was retaken when gauge facets came from the numpy enumerator and the
# diagram's second route became a flat contraction; every hashed value
# stayed within 3e-16 relative (residuals 5e-16 absolute) of the one before.
# It was retaken again when the operator norms, the maximizers and the
# diagram moved onto batches of flat rows: operator norms and maximizer
# coordinates within 1.1e-14 relative (the largest on a coordinate of
# magnitude 6e-3), residuals within 8.1e-16 absolute.
PINNED_DUALITY_DIGEST = "c094b94319084f93ff1517acee4998b08e8044795761de75b4d5de9e3b2e34dc"


def test_duality_values_are_pinned():
    recipe = InstanceRecipe(seed=23, atom_range=(2, 4), dim_range=(1, 3),
                            constant_fraction=0.25, zero_fiber_fraction=0.2)
    h = hashlib.sha256()
    for i in range(8):
        bundle = random_bundle(recipe, i)
        rng = instance_rng(recipe.seed, i, stream=4)
        for p in (1.5, 2, 3):
            q = conjugate_exponent(p)
            omega = random_section(bundle.dual(), rng)
            v = random_section(bundle, rng)
            h.update(np.array([operator_norm(omega, p), operator_norm(v, q)]).tobytes())
            h.update(holder_maximizer(omega, p).coords.tobytes())
        rep = check_reflexivity_diagram(bundle, 2, samples=6, seed=i)
        h.update(np.array([rep.max_pairing_residual, rep.max_bidual_norm_gap,
                           rep.max_constant_chain_residual]).tobytes())
    assert h.hexdigest() == PINNED_DUALITY_DIGEST
