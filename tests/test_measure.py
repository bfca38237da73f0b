import math
from fractions import Fraction

import numpy as np
import pytest

from bundlelab.measure import (
    MeasureSpace,
    ScalarField,
    as_exponent,
    conjugate_exponent,
    lp_norm,
)


def space():
    return MeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.0])


class TestMeasureSpace:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpace(["a", "a"], [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpace(["a", "b"], [1.0, 0.0])
        with pytest.raises(ValueError):
            MeasureSpace(["a", "b"], [1.0, -2.0])
        with pytest.raises(ValueError):
            MeasureSpace(["a", "b"], [1.0, math.inf])

    def test_equality_and_hash(self):
        assert space() == space()
        assert hash(space()) == hash(space())
        assert space() != MeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.1])


class TestScalarField:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            ScalarField(space(), [1.0, 2.0])

    def test_lp_norm_hand_values(self):
        sp = space()
        f = ScalarField(sp, [3.0, -4.0, 0.5])
        # sum w |f|^2 = 1*9 + 0.5*16 + 2*0.25 = 17.5
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(17.5), abs=1e-12)
        assert lp_norm(f, 1) == pytest.approx(3 + 2 + 1, abs=1e-12)
        assert lp_norm(f, math.inf) == pytest.approx(4.0)


class TestExponents:
    def test_as_exponent_fraction(self):
        assert as_exponent(1.5) == 1.5
        assert as_exponent("inf") == math.inf
        assert as_exponent(2) == Fraction(2)
        assert as_exponent(Fraction(3, 2)) == Fraction(3, 2)

    def test_as_exponent_rejects_below_one(self):
        with pytest.raises(ValueError):
            as_exponent(0.5)
        with pytest.raises(ValueError):
            as_exponent(Fraction(1, 2))

    def test_conjugate_exact_rational(self):
        q = conjugate_exponent(Fraction(3, 2))
        assert q == Fraction(3, 1)
        assert Fraction(1, 1) / Fraction(3, 2) + Fraction(1, 1) / q == 1
        assert conjugate_exponent(2) == Fraction(2)
        assert conjugate_exponent(3) == Fraction(3, 2)

    def test_conjugate_endpoints(self):
        assert conjugate_exponent(1) == math.inf
        assert conjugate_exponent(math.inf) == Fraction(1)

    def test_conjugate_float(self):
        q = conjugate_exponent(2.5)
        assert abs(1 / 2.5 + 1 / float(q) - 1.0) <= 1e-15


def test_lp_norm_monotone_in_p_on_probability_space():
    sp = MeasureSpace(["a", "b", "c"], [1 / 3.5, 0.5 / 3.5, 2 / 3.5])
    f = ScalarField(sp, [0.3, -1.2, 0.7])
    values = [lp_norm(f, p) for p in (1, 1.5, 2, 3, 8, math.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
