"""The zero, one-term and denominator-one shortcuts, checked against sympy.

``Polynomial`` multiplies by a one-term operand with a scale or a key shift
and returns an operand unchanged for ``* 1`` and ``+ 0``; ``Scalar`` sums,
products and derivatives of two denominator-one values build the numerator
alone on the shared ``Polynomial.one(nvars)``.  The oracle works in
``QQ_I``, sympy's field of Gaussian rationals.  ``sympy`` and ``hypothesis``
are test-only dependencies.
"""

import copy
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.poly import Polynomial
from oddsymplectic.scalar import Scalar
from oddsymplectic.superalgebra import Chart, SuperFunction

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_coefficients = st.one_of(
    st.sampled_from([GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1)]),
    st.builds(GaussianRational, _fractions, _fractions).filter(bool),
)


def _terms(nvars: int, min_size: int, max_size: int):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, _coefficients, min_size=min_size, max_size=max_size)


@st.composite
def _operand(draw, nvars: int) -> Polynomial:
    """Zero, one, a constant, a monomial (coefficient one or not), or a sum."""
    kind = draw(st.sampled_from(["zero", "one", "constant", "monomial", "unit monomial", "sum"]))
    if kind == "zero":
        return Polynomial.zero(nvars)
    if kind == "one":
        return Polynomial.one(nvars)
    if kind == "constant":
        return Polynomial.constant(draw(_coefficients), nvars)
    if kind == "sum":
        return Polynomial(nvars, draw(_terms(nvars, 2, 4)))
    exps = draw(st.tuples(*[st.integers(0, 2)] * nvars))
    coeff = 1 if kind == "unit monomial" else draw(_coefficients)
    return Polynomial.monomial(exps, coeff, nvars)


@st.composite
def _pair(draw) -> tuple[Polynomial, Polynomial]:
    nvars = draw(st.integers(1, 3))
    return draw(_operand(nvars)), draw(_operand(nvars))


def _to_sympy(p: Polynomial):
    terms = {e: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for e, c in p.terms.items()}
    gens = sympy.symbols(f"x0:{p.nvars}")
    if not terms:
        return sympy.Poly(0, *gens, domain=sympy.QQ_I)
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ_I)


def _snapshot(*polys: Polynomial) -> list[dict]:
    return [dict(p.terms) for p in polys]


def _check_one_is_intact(nvars: int) -> None:
    assert Polynomial.one(nvars).terms == {(0,) * nvars: 1}


@SETTINGS
@given(_pair())
def test_polynomial_ring_operations_match_sympy(pair):
    p, q = pair
    before = _snapshot(p, q)
    for result, expected in (
        (p * q, _to_sympy(p) * _to_sympy(q)),
        (q * p, _to_sympy(p) * _to_sympy(q)),
        (p + q, _to_sympy(p) + _to_sympy(q)),
        (q + p, _to_sympy(p) + _to_sympy(q)),
        (p - q, _to_sympy(p) - _to_sympy(q)),
    ):
        assert _to_sympy(result) == expected
        # The trusted constructor never lets a zero coefficient in.
        assert all(result.terms.values())
    assert _snapshot(p, q) == before
    _check_one_is_intact(p.nvars)


def test_identities_return_the_operand():
    x = Polynomial.variable(0, 2)
    p = x * x + Polynomial.variable(1, 2).scale(3)
    one, zero = Polynomial.one(2), Polynomial.zero(2)
    assert one is Polynomial.one(2)
    assert one is not Polynomial.one(3)
    assert p * one is p and one * p is p
    assert p + zero is p and zero + p is p
    assert (p * zero).is_zero() and (zero * p).is_zero()


@SETTINGS
@given(_pair(), st.integers(0, 2))
def test_operands_and_the_shared_one_are_never_written(pair, index):
    p, q = pair
    index %= p.nvars
    before = _snapshot(p, q)
    results = [p * q, p + q, -p, p - q, p.scale(3), p.partial(index), p**2, q**0]
    results += [r * Polynomial.one(p.nvars) + Polynomial.zero(p.nvars) for r in results]
    s, t = Scalar(p), Scalar(q)
    scalars = [s * t, s + t, s - t, -s, s.partial(index), s * 1, s + 0]
    if not q.is_zero():
        scalars.append(s / t)
    assert _snapshot(p, q) == before
    _check_one_is_intact(p.nvars)
    for value in results:
        assert all(value.terms.values())
    for value in scalars:
        assert all(value.num.terms.values())
        assert value.den.terms == {(0,) * p.nvars: 1} or not value.den.is_constant()


@SETTINGS
@given(_pair(), st.integers(0, 2))
def test_denominator_one_scalars_match_sympy_cancel(pair, index):
    p, q = pair
    index %= p.nvars
    s, t = Scalar(p), Scalar(q)
    gens = sympy.symbols(f"x0:{p.nvars}")
    a, b = _to_sympy(p).as_expr(), _to_sympy(q).as_expr()
    for result, expr in (
        (s * t, a * b),
        (s + t, a + b),
        (s - t, a - b),
        (s.partial(index), sympy.diff(a, gens[index])),
    ):
        # Poly() refuses a cancelled form with a nonconstant denominator.
        expected = sympy.Poly(sympy.cancel(expr), *gens, domain=sympy.QQ_I)
        assert _to_sympy(result.num) == expected
        assert result.den is Polynomial.one(p.nvars)
        # The normal form is the one the reducing constructor gives.
        reduced = Scalar(result.num, Polynomial.constant(1, p.nvars))
        assert result == reduced and hash(result) == hash(reduced)
        assert repr(result) == repr(reduced)


def test_an_unshared_denominator_one_takes_the_general_path_to_the_same_result():
    x, y = Scalar.variable(0, 2), Scalar.variable(1, 2)
    a, b = x * x + y, x - y * 3
    copies = copy.copy(a), copy.copy(b)
    for value in copies:
        value.den = copy.copy(value.den)
    assert copies[0].den is not Polynomial.one(2) and copies[0].den == Polynomial.one(2)
    for left, right in ((a, b), copies, (copies[0], b), (a, copies[1])):
        for result, expected in ((left * right, a * b), (left + right, a + b)):
            assert (result.num, result.den) == (expected.num, expected.den)
            assert result.den is Polynomial.one(2)
    assert copies[0].partial(0) == a.partial(0)


def _counting(monkeypatch, name: str) -> list[int]:
    calls: list[int] = []
    original = getattr(Polynomial, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(Polynomial, name, counted)
    return calls


def test_product_of_denominator_one_scalars_multiplies_once(monkeypatch):
    x, y = Scalar.variable(0, 2), Scalar.variable(1, 2)
    a, b = x * x + y, x - y * 3
    products = _counting(monkeypatch, "__mul__")
    reductions = _counting(monkeypatch, "cofactors")
    assert a * b == x * x * x - x * x * y * 3 + x * y - y * y * 3
    products.clear()
    a * b
    assert len(products) == 1
    assert not reductions


def test_sum_and_derivative_of_denominator_one_scalars_skip_reduction(monkeypatch):
    x, y = Scalar.variable(0, 2), Scalar.variable(1, 2)
    a, b = x * x + y, x - y * 3
    total, derivative = x * x + x - y * 2, x * 2
    reductions = _counting(monkeypatch, "cofactors")
    products = _counting(monkeypatch, "__mul__")
    assert a + b == total
    assert a.partial(0) == derivative
    assert not reductions and not products


def test_scalar_coerce_refuses_a_polynomial_over_other_variables():
    with pytest.raises(ValueError):
        Scalar.coerce(Polynomial.variable(0, 2), 3)
    with pytest.raises(ValueError):
        Scalar.variable(0, 3) + Polynomial.variable(0, 2)
    assert Scalar.coerce(Polynomial.variable(0, 3), 3) == Scalar.variable(0, 3)


@pytest.mark.parametrize("exps", [(1, 2, 3), (1,), (), (-1, 0), (0, -2)])
def test_monomial_refuses_malformed_exponents(exps):
    with pytest.raises(ValueError):
        Polynomial.monomial(exps, 1, 2)


def test_monomial_accepts_well_formed_exponents():
    x1 = Polynomial.variable(1, 2)
    assert Polynomial.monomial((1, 2), 1, 2) * x1 == Polynomial.monomial([1, 3], 1, 2)
    assert Polynomial.monomial((0, 0), 5, 2) == Polynomial.constant(5, 2)
    assert Polynomial.monomial((1, 2), 0, 2).is_zero()


def test_superfunction_results_keep_no_zero_coefficients():
    chart = Chart.darboux(2)
    x1, th1, th2 = (SuperFunction.generator(chart, n) for n in ("x1", "th1", "th2"))
    f = x1 * th1 + th2
    assert (f - f).terms == {}
    assert (f + (-f)).terms == {}
    assert (th1 * th1).terms == {}
    assert (f * f).terms == {}
    assert f.partial_odd("th1").terms == {0: Scalar.variable(0, chart.nvars)}
    assert f.scale(Scalar.variable(0, chart.nvars)).partial_odd("th2") == x1
    # A chart equal to, but not the same object as, the operand's chart.
    twin = Chart.darboux(2)
    assert twin is not chart
    assert f + SuperFunction.generator(twin, "th2") == x1 * th1 + th2 * 2
