"""Rational-function scalars: reduction, equality, calculus."""

from fractions import Fraction

import pytest

from oddsymplectic.poly import Polynomial
from oddsymplectic.scalar import Scalar


def xy():
    return Scalar.variable(0, 2), Scalar.variable(1, 2)


def test_reduction_to_canonical_form():
    x, y = xy()
    a = (x * x - y * y) / (x + y)
    assert a == x - y
    b = (x * y) / (y * x)
    assert b == 1


def test_denominator_is_monic():
    x, y = xy()
    s = x / (x * 2 + y * 2)  # x / (2x+2y) -> (1/2)x / (x+y)
    assert s.den == (Polynomial.variable(0, 2) + Polynomial.variable(1, 2))
    assert s.num == Polynomial.variable(0, 2).scale(Fraction(1, 2))


def test_field_axioms_spot_checks():
    x, y = xy()
    s = (x + 1) / (y + 2)
    t = y / x
    assert (s + t) - t == s
    assert (s * t) / t == s
    assert s * s.invert() == 1
    assert (s - s).is_zero()


def test_partial_quotient_rule():
    x, y = xy()
    s = x / y
    # d/dy (x/y) = -x/y^2
    assert s.partial(1) == -x / (y * y)
    # d/dx (x^2/(x+y)) = (x^2 + 2xy)/(x+y)^2
    t = (x * x) / (x + y)
    expected = (x * x + x * y * 2) / ((x + y) * (x + y))
    assert t.partial(0) == expected


def test_pole_detection_on_evaluation():
    x, y = xy()
    s = (x + 1) / y
    with pytest.raises(ZeroDivisionError):
        s.set_vars_to_zero([1])
    assert s.set_vars_to_zero([0]) == Scalar.one(2) / y


def test_coefficients_in_variable():
    x, y = xy()
    s = (x * x * y + x + 1) / (y + 1)
    split = s.coefficients_in(0)
    assert split[2] == y / (y + 1)
    assert split[1] == Scalar.one(2) / (y + 1)
    assert split[0] == Scalar.one(2) / (y + 1)
    with pytest.raises(ValueError):
        (x / (x + 1)).coefficients_in(0)


def test_sqrt_of_rational_functions():
    x, y = xy()
    s = (x * x) / ((x + y) * (x + y))
    root = s.sqrt()
    assert root is not None
    assert root * root == s
    assert ((x + 1) / y).sqrt() is None
    assert Scalar.constant(Fraction(9, 16), 2).sqrt() == Scalar.constant(Fraction(3, 4), 2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar(Polynomial.one(1), Polynomial.zero(1))
    x = Scalar.variable(0, 1)
    with pytest.raises(ZeroDivisionError):
        (x - x).invert()


def test_power():
    x, y = xy()
    s = x / y
    assert s**3 == (x * x * x) / (y * y * y)
    assert s**-2 == (y * y) / (x * x)
    assert s**0 == 1


@pytest.mark.parametrize(
    "left, right",
    [
        (Scalar.variable(0, 2), Scalar.variable(2, 3)),
        (Scalar.one(2) / (Scalar.variable(0, 2) + 1), Scalar.one(3) / (Scalar.variable(2, 3) + 1)),
        (Scalar.variable(1, 2), Scalar.one(3) / (Scalar.variable(0, 3) + 2)),
        (Scalar.zero(2), Scalar.variable(2, 3)),
        (Scalar.zero(2), Scalar.one(3) / (Scalar.variable(2, 3) + 1)),
        (Scalar.one(2) / (Scalar.variable(0, 2) + 1), Scalar.zero(3)),
        (Scalar.zero(2), Scalar.zero(3)),
    ],
    ids=["polynomials", "fractions", "mixed", "zero-polynomial", "zero-fraction",
         "fraction-zero", "zeros"],
)
def test_scalars_over_different_variable_counts_do_not_combine(left, right):
    for a, b in ((left, right), (right, left)):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
