"""The coefficient field Q(i), checked against sympy's ``QQ_I`` as an oracle.

Values are drawn as pairs of ``Fraction`` parts.  Every result must equal
sympy's and be in the normal form ``(a + b*I)/d`` with ``d > 0`` and
``gcd(a, b, d) == 1``; real values must compare and hash like the equal
``int`` or ``Fraction``.  ``sympy`` and ``hypothesis`` are test-only
dependencies.
"""

import math
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ_I
from sympy.polys.polyerrors import CoercionFailed

from oddsymplectic.gaussian import GaussianRational, fraction_sqrt

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_large = st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**12))
_fractions = st.one_of(_small, _small, _large)
_gaussians = st.builds(GaussianRational, _fractions, _fractions)
_reals = st.builds(GaussianRational, _fractions)
# Squares built with the pair formula (x + y*I)^2 = x^2 - y^2 + 2*x*y*I, so
# the square root has something to find; negated rational squares too.
_squares = st.one_of(
    st.builds(lambda x, y: GaussianRational(x * x - y * y, 2 * x * y), _fractions, _fractions),
    st.builds(lambda x: GaussianRational(-x * x), _fractions),
)


def _rational(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _to_sympy(value) -> object:
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
    else:
        re, im = Fraction(value), Fraction(0)
    return QQ_I(
        sympy.Rational(re.numerator, re.denominator),
        sympy.Rational(im.numerator, im.denominator),
    )


def _parts(value) -> tuple[Fraction, Fraction]:
    """``(re, im)`` of one of ours or of a sympy ``QQ_I`` element."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return _rational(value.x), _rational(value.y)


def _assert_normal(value: GaussianRational) -> None:
    assert type(value) is GaussianRational
    assert type(value.a) is int and type(value.b) is int and type(value.d) is int
    assert value.d > 0
    assert math.gcd(value.a, value.b, value.d) == 1


def _assert_matches(ours: GaussianRational, theirs) -> None:
    _assert_normal(ours)
    assert _parts(ours) == _parts(theirs)


@SETTINGS
@given(_gaussians)
def test_construction_is_normal_and_keeps_the_parts(z):
    _assert_normal(z)
    assert GaussianRational(z.re, z.im) == z
    assert Fraction(z.a, z.d) == z.re and Fraction(z.b, z.d) == z.im


@SETTINGS
@given(_gaussians, _gaussians)
def test_field_operations_match_sympy(z, w):
    zs, ws = _to_sympy(z), _to_sympy(w)
    _assert_matches(z + w, zs + ws)
    _assert_matches(z - w, zs - ws)
    _assert_matches(z * w, zs * ws)
    _assert_matches(-z, -zs)
    _assert_matches(z.conjugate(), QQ_I(zs.x, -zs.y))
    if w:
        _assert_matches(z / w, zs / ws)
        _assert_matches(w.inverse(), QQ_I.one / ws)
    else:
        with pytest.raises(ZeroDivisionError):
            w.inverse()


@SETTINGS
@given(_gaussians, st.one_of(st.integers(-20, 20), _small))
def test_mixed_operands_match_sympy(z, q):
    zs, qs = _to_sympy(z), _to_sympy(q)
    _assert_matches(z + q, zs + qs)
    _assert_matches(q + z, qs + zs)
    _assert_matches(z - q, zs - qs)
    _assert_matches(q - z, qs - zs)
    _assert_matches(z * q, zs * qs)
    _assert_matches(q * z, qs * zs)
    if q:
        _assert_matches(z / q, zs / qs)
    if z:
        _assert_matches(q / z, qs / zs)


@SETTINGS
@given(st.one_of(_gaussians, _squares), st.integers(-6, 6))
def test_powers_match_sympy(z, exponent):
    if exponent < 0 and not z:
        with pytest.raises(ZeroDivisionError):
            z**exponent
        return
    _assert_matches(z**exponent, _to_sympy(z) ** exponent)


def _principal_root(z: GaussianRational) -> tuple[Fraction, Fraction] | None:
    """sympy's principal square root (positive real part, or zero real part
    and nonnegative imaginary part), or ``None`` when it is not in Q(i)."""
    root = sympy.expand(sympy.sqrt(QQ_I.to_sympy(_to_sympy(z))))
    try:
        return _parts(QQ_I.from_sympy(root))
    except CoercionFailed:
        return None


@SETTINGS
@given(st.one_of(_gaussians, _reals, _squares))
def test_sqrt_matches_sympy(z):
    root = z.sqrt()
    expected = _principal_root(z)
    if expected is None:
        assert root is None
    else:
        assert root is not None
        _assert_normal(root)
        assert _parts(root) == expected


@SETTINGS
@given(_small)
def test_fraction_sqrt_matches_sympy(q):
    square = q * q
    assert fraction_sqrt(square) == abs(q)
    if q:
        assert fraction_sqrt(-square) is None
    expected = _principal_root(GaussianRational(q))
    root = fraction_sqrt(q)
    assert root == (None if expected is None or expected[1] else expected[0])


@SETTINGS
@given(_fractions)
def test_real_values_compare_and_hash_like_fraction_and_int(q):
    z = GaussianRational(q)
    assert z == q and q == z
    assert hash(z) == hash(q)
    built = GaussianRational(q.numerator) / q.denominator
    assert built == z and hash(built) == hash(z)
    if q.denominator == 1:
        n = int(q)
        assert z == n and n == z
        assert hash(z) == hash(n)
    assert z != q + 1
    assert {z: "value"}[q] == "value"


@pytest.mark.parametrize("factor", [1, 2, -3, 10**40])
def test_hash_when_the_denominator_is_a_multiple_of_the_hash_prime(factor):
    q = Fraction(1, factor * sys.hash_info.modulus) * (-1 if factor < 0 else 1)
    z = GaussianRational(q)
    assert z == q and hash(z) == hash(q)


@SETTINGS
@given(_gaussians, _gaussians)
def test_equal_values_have_equal_fields_and_hashes(z, w):
    back = (z + w) - w
    assert back == z and hash(back) == hash(z)
    assert (back.a, back.b, back.d) == (z.a, z.b, z.d)
    assert (z == w) == (_parts(z) == _parts(w))
    if w:
        again = (z * w) / w
        assert again == z and hash(again) == hash(z)


def test_constructor_inputs_and_immutability():
    half = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert (half.a, half.b, half.d) == (2, -3, 4)
    assert GaussianRational("1/2", "-3/4") == half
    assert GaussianRational(0.5, -0.75) == half
    assert GaussianRational(half) == half
    assert GaussianRational(True) == 1
    with pytest.raises(TypeError):
        GaussianRational(half, 1)
    with pytest.raises(AttributeError):
        half.a = 1
    with pytest.raises(AttributeError):
        half.re = Fraction(1)
