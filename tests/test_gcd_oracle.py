"""Gcd, cofactors, exact division and the Scalar normal form, checked against sympy.

Polynomials in one to three variables with Gaussian-rational coefficients are
generated with a planted common factor, or at random for the modular gcd
proofs.  The oracle works in ``QQ_I``, sympy's field of Gaussian rationals.
``sympy`` and ``hypothesis`` are test-only dependencies.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oddsymplectic import poly
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.poly import Polynomial
from oddsymplectic.scalar import Scalar

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# Units make cancellations, such as (x + y)(x - y), common enough to exercise
# the division steps that subtract into an empty remainder slot.
_units = st.sampled_from([GaussianRational(re, im) for re, im in ((1, 0), (-1, 0), (0, 1), (0, -1))])
_coefficients = st.one_of(_units, st.builds(GaussianRational, _fractions, _fractions).filter(bool))


@st.composite
def _polynomial(draw, nvars: int) -> Polynomial:
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.dictionaries(exps, _coefficients, min_size=1, max_size=3))
    return Polynomial(nvars, terms)


@st.composite
def _planted(draw) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Three nonzero polynomials in a shared variable set: (u, v, w)."""
    nvars = draw(st.integers(1, 3))
    return tuple(draw(_polynomial(nvars)) for _ in range(3))


@st.composite
def _quotient(draw) -> tuple[Polynomial, Polynomial, int]:
    """A numerator, a denominator and a variable index; often ``den`` is free of it."""
    nvars = draw(st.integers(1, 3))
    index = draw(st.integers(0, nvars - 1))
    num, den = draw(_polynomial(nvars)), draw(_polynomial(nvars))
    if draw(st.booleans()):
        den = den.set_vars_to_zero([index])
        assume(not den.is_zero())
    return num, den, index


def _to_sympy(p: Polynomial):
    terms = {e: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for e, c in p.terms.items()}
    gens = sympy.symbols(f"x0:{p.nvars}")
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ_I)


def _lex_monic_gcd(a: Polynomial, b: Polynomial):
    """sympy's gcd over Q(i), scaled so the lex-leading coefficient is one."""
    return sympy.gcd(_to_sympy(a), _to_sympy(b)).monic()


@SETTINGS
@given(_planted())
def test_gcd_matches_sympy(polys):
    u, v, w = polys
    a, b = u * v, u * w
    expected = _lex_monic_gcd(a, b)
    assert _to_sympy(Polynomial.gcd(a, b)) == expected
    heuristic = Polynomial._gcd_heuristic(a, b)
    assert heuristic is not None
    assert _to_sympy(heuristic.monic()) == expected


def _check_cofactors(a: Polynomial, b: Polynomial) -> None:
    g, a_g, b_g = a.cofactors(b)
    expected = _lex_monic_gcd(a, b)
    assert _to_sympy(g) == expected
    assert _to_sympy(a_g) == sympy.exquo(_to_sympy(a), expected)
    assert _to_sympy(b_g) == sympy.exquo(_to_sympy(b), expected)


@SETTINGS
@given(_planted())
def test_cofactors_match_sympy(polys):
    u, v, w = polys
    _check_cofactors(u * v, u * w)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_planted())
def test_cofactors_match_sympy_on_the_prs_path(polys):
    u, v, w = polys
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "_gcd_heuristic", staticmethod(lambda a, b: None))
        _check_cofactors(u * v, u * w)


@SETTINGS
@given(_planted(), st.booleans())
def test_divide_exact_matches_sympy_div(polys, perturb):
    u, v, w = polys
    num = u * v + w if perturb else u * v
    quotient, remainder = sympy.div(_to_sympy(num), _to_sympy(u))
    ours = num.divide_exact(u)
    if remainder.is_zero:
        assert ours is not None
        assert _to_sympy(ours) == quotient
    else:
        assert ours is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_planted())
def test_prs_fallback_agrees_with_the_heuristic(polys):
    u, v, w = polys
    a, b = u * v, u * w
    expected = Polynomial.gcd(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "_gcd_heuristic", staticmethod(lambda a, b: None))
        fallback = Polynomial.gcd(a, b)
    assert fallback == expected
    assert _to_sympy(fallback) == _lex_monic_gcd(a, b)


@SETTINGS
@given(_planted())
def test_scalar_normal_form_matches_sympy_cancel(polys):
    u, v, w = polys
    reduced = Scalar(u * v, u * w)
    num, den = _to_sympy(u * v).cancel(_to_sympy(u * w), include=True)
    # Lowest terms with a lex-monic denominator, as sympy's cancel gives it.
    assert sympy.gcd(_to_sympy(reduced.num), _to_sympy(reduced.den)).is_ground
    assert reduced.den.leading()[1] == 1
    assert _to_sympy(reduced.den) == den.monic()
    assert _to_sympy(reduced.num) == num.quo_ground(den.LC())
    # The same value built by arithmetic, which skips the gcd where it can,
    # has the same fields.
    for same in (Scalar(v) / Scalar(w), (Scalar(v) + Scalar(w)) / Scalar(w) - 1):
        assert (same.num, same.den) == (reduced.num, reduced.den)


# Fewer examples: sympy's multivariate cancel over QQ_I dominates the cost.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_quotient())
def test_scalar_partial_matches_sympy_diff(case):
    num, den, index = case
    value = Scalar(num, den)
    derivative = value.partial(index)
    gens = sympy.symbols(f"x0:{num.nvars}")
    expr = _to_sympy(value.num).as_expr() / _to_sympy(value.den).as_expr()
    top, bottom = sympy.fraction(sympy.cancel(sympy.diff(expr, gens[index])))
    top = sympy.Poly(top, *gens, domain=sympy.QQ_I)
    bottom = sympy.Poly(bottom, *gens, domain=sympy.QQ_I)
    # Lowest terms with a lex-monic denominator, as sympy's cancel gives it.
    assert sympy.gcd(_to_sympy(derivative.num), _to_sympy(derivative.den)).is_ground
    assert derivative.den.leading()[1] == 1
    assert _to_sympy(derivative.den) == bottom.monic()
    assert _to_sympy(derivative.num) == top.quo_ground(bottom.LC())


# -- the modular proofs before the heuristic ------------------------------------------


def _modular(a: Polynomial, b: Polynomial) -> "Polynomial | None":
    return Polynomial._gcd_modular(a, b, a.variables_present(), b.variables_present())


@st.composite
def _pair(draw) -> tuple[Polynomial, Polynomial]:
    """Two independent polynomials in a shared variable set, mostly coprime."""
    nvars = draw(st.integers(1, 3))
    return draw(_polynomial(nvars)), draw(_polynomial(nvars))


@SETTINGS
@given(_pair())
def test_gcd_of_random_pairs_matches_sympy(pair):
    a, b = pair
    assert _to_sympy(Polynomial.gcd(a, b)) == _lex_monic_gcd(a, b)


@SETTINGS
@given(_planted())
def test_planted_common_factors_are_never_certified(polys):
    u, v, w = polys
    assume(not u.is_constant())
    a, b = u * v, u * w
    proven = _modular(a, b)
    assert proven != Polynomial.one(a.nvars)
    # The divisor proof may settle the pair, but only with the true gcd.
    assert proven is None or _to_sympy(proven) == _lex_monic_gcd(a, b)


@SETTINGS
@given(_pair(), st.integers(1, 2))
def test_a_leading_coefficient_vanishing_at_the_residues_is_inconclusive(pair, degree):
    """``(x1 - r1) x0^k + ...`` has a leading coefficient in ``x0`` that is 0 mod p."""
    u, b = pair
    nvars = max(u.nvars, 2)
    u, b = (
        Polynomial(nvars, {e + (0,) * (nvars - p.nvars): c for e, c in p.terms.items()})
        for p in (u, b)
    )
    assume(b.degree_in(0) > 0)
    r1 = poly._residues(nvars)[1]
    x0, x1 = Polynomial.variable(0, nvars), Polynomial.variable(1, nvars)
    tail = u.set_vars_to_zero([0])
    if tail.is_zero():
        tail = Polynomial.one(nvars)
    a = (x1 - Polynomial.constant(r1, nvars)) * x0 ** (b.degree_in(0) + degree) + tail
    assert _modular(a, b) is None
    assert _to_sympy(Polynomial.gcd(a, b)) == _lex_monic_gcd(a, b)


@SETTINGS
@given(_pair(), st.integers(1, 3))
def test_a_denominator_divisible_by_p_is_inconclusive(pair, multiple):
    a, b = pair
    assume(len(a.terms) > 1 and a.variables_present() & b.variables_present())
    exps, coeff = next(iter(a.terms.items()))
    terms = dict(a.terms)
    terms[exps] = coeff * GaussianRational(Fraction(1, multiple * poly._P))
    a = Polynomial(a.nvars, terms)
    assert _modular(a, b) is None
    assert _to_sympy(Polynomial.gcd(a, b)) == _lex_monic_gcd(a, b)


def _count_gcd_work(monkeypatch) -> dict[str, int]:
    counts = {"heuristic": 0, "divide": 0}
    heuristic, divide = Polynomial._gcd_heuristic, poly._divide_exact

    def counted_heuristic(a, b):
        counts["heuristic"] += 1
        return heuristic(a, b)

    def counted_divide(num, div):
        counts["divide"] += 1
        return divide(num, div)

    monkeypatch.setattr(Polynomial, "_gcd_heuristic", staticmethod(counted_heuristic))
    monkeypatch.setattr(poly, "_divide_exact", counted_divide)
    return counts


def test_a_coprime_multi_term_pair_skips_the_heuristic(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.one(2)
    a, b = x * x + y + one, x + y * y + one.scale(3)
    counts = _count_gcd_work(monkeypatch)
    assert Polynomial.gcd(a, b) == one
    assert counts == {"heuristic": 0, "divide": 0}


def test_a_dividing_operand_costs_one_division_and_no_heuristic(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.one(2)
    b = (x + y.scale(GaussianRational(0, 2)) + one).scale(Fraction(3, 4))
    a = b * (x - y + one.scale(2))
    counts = _count_gcd_work(monkeypatch)
    for first, second in ((a, b), (b, a)):
        counts.update(heuristic=0, divide=0)
        assert Polynomial.gcd(first, second) == b.monic()
        assert counts == {"heuristic": 0, "divide": 1}
