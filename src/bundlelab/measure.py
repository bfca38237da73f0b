"""Finite atomic measure spaces, scalar fields on them, integrability
exponents and the weighted L^p norm of a field.

Everything downstream works over a finite list of atoms with strictly
positive weights.  Because every atom carries positive mass, "almost
everywhere" statements degenerate to "at every atom", which is exactly
what makes the desk-scale checks in the rest of the package exact.  A
:class:`ScalarField` only validates one finite value per atom; callers
compute on its ``values`` array directly.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "MeasureSpace",
    "ScalarField",
    "lp_norm",
    "conjugate_exponent",
    "as_exponent",
]


def _real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, numpy's
    included, but not a bool or a string, which numpy would cast (a JSON
    ``true`` or ``"2"`` is not a number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _reals(values) -> bool:
    """Whether every entry of an array or of nested lists is ``_real``."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, (list, tuple)):
        return all(map(_reals, values))
    return _real(values)


def _real_array(values, name: str, ndim: int) -> np.ndarray:
    """``values``, entries that are all ``_real``, as a finite float array of
    ``ndim`` dimensions; a ValueError otherwise."""
    if not _reals(values):
        raise ValueError(f"{name} must be real numbers, not booleans or strings")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {('one', 'two')[ndim - 1]}-dimensional array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


class MeasureSpace:
    """A finite atomic measure space: ordered atom ids plus positive weights.

    Parameters
    ----------
    atoms : sequence of hashable ids
        Atom labels; order is meaningful and ids must be unique.
    weights : sequence of float
        Strictly positive mass per atom.  Zero or negative weights are
        rejected at construction so that no downstream operation ever has
        to reason about null atoms.
    """

    def __init__(self, atoms: Sequence, weights: Sequence[float]):
        self.atoms = tuple(atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom ids must be unique")
        self.weights = _real_array(weights, "weights", 1)
        if len(self.weights) != len(self.atoms):
            raise ValueError("weights must match atoms in length")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be strictly positive")

    # -- basic queries ---------------------------------------------------

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def __eq__(self, other):
        return (
            isinstance(other, MeasureSpace)
            and self.atoms == other.atoms
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.atoms, self.weights.tobytes()))

    def __repr__(self):
        return f"MeasureSpace(atoms={list(self.atoms)!r}, weights={self.weights.tolist()!r})"


class ScalarField:
    """A real-valued function on the atoms of a :class:`MeasureSpace`."""

    def __init__(self, space: MeasureSpace, values):
        self.space = space
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (space.atom_count,):
            raise ValueError(
                f"field needs one value per atom: expected shape "
                f"({space.atom_count},), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def __repr__(self):
        return f"ScalarField({self.values.tolist()!r})"


# -- exponents -----------------------------------------------------------


def as_exponent(p):
    """Validate an integrability exponent, returning float or Fraction.

    Accepts ints, floats, :class:`fractions.Fraction`, ``math.inf``, the
    string ``"inf"`` and fraction strings such as ``"3/2"``, but not a
    bool.  Rational inputs are kept exact so conjugates can be formed in
    exact arithmetic.
    """
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"exponent must be a number or a string, got {p!r}")
    if isinstance(p, str):
        if p.strip().lower() in {"inf", "infinity"}:
            return math.inf
        p = Fraction(p)
    if isinstance(p, Fraction):
        if p < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {p}")
        return p
    if isinstance(p, numbers.Integral):
        if p < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {p}")
        return Fraction(int(p))
    p = float(p)
    if math.isinf(p) and p > 0:
        return math.inf
    if not (p >= 1.0):
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    return p


def conjugate_exponent(p):
    """Conjugate exponent q with 1/p + 1/q = 1.

    Rational p (given as int, Fraction or numeric string) is handled in
    exact arithmetic; float p uses floating point, for which the defining
    identity holds to 1e-15 and is asserted.
    """
    p = as_exponent(p)
    if p == math.inf:
        return Fraction(1)
    if isinstance(p, Fraction):
        if p == 1:
            return math.inf
        return p / (p - 1)
    if p == 1.0:
        return math.inf
    q = p / (p - 1.0)
    assert abs(1.0 / p + 1.0 / q - 1.0) <= 1e-15
    return q


# -- integral-type operations ---------------------------------------------


def lp_norm(field: ScalarField, p) -> float:
    """Weighted L^p norm of a scalar field, p in [1, inf].

    For finite p this is ``(sum_x w_x |f(x)|^p)**(1/p)``; for p = inf it is
    the maximum of ``|f|`` over atoms, which on a finite atomic space is the
    essential supremum.
    """
    p = as_exponent(p)
    values = np.abs(field.values)
    if field.space.atom_count == 0:
        return 0.0
    if p == math.inf:
        return float(values.max())
    pf = float(p)
    return float(np.sum(field.space.weights * values**pf) ** (1.0 / pf))
