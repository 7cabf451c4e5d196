"""Gcd, cofactors, exact division and the Scalar normal form, checked against sympy.

Polynomials in one to three variables (up to five on Brown's path) with
Gaussian-rational coefficients are generated with a planted common factor, or
at random for the modular gcd proofs.  The oracle works in ``QQ_I``, sympy's
field of Gaussian rationals.  ``sympy`` and ``hypothesis`` are test-only
dependencies.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oddsymplectic import brown
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.poly import Polynomial
from oddsymplectic.sampling import MAX_DIMENSION
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
def _planted(draw, max_vars: int = 3) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Three nonzero polynomials in a shared variable set: (u, v, w)."""
    nvars = draw(st.integers(1, max_vars))
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
    assert _to_sympy(Polynomial.gcd(a, b)) == _lex_monic_gcd(a, b)


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


def _without_proofs(mp: pytest.MonkeyPatch) -> None:
    """Send every pair past the shortcuts to Brown's gcd."""
    mp.setattr(brown, "_gcd_modular", lambda a, b, vars_a, vars_b: None)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_planted(MAX_DIMENSION))
def test_cofactors_match_sympy_on_the_brown_path(polys):
    u, v, w = polys
    with pytest.MonkeyPatch.context() as mp:
        _without_proofs(mp)
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


# -- the modular proofs before Brown's gcd -------------------------------------------


def _modular(a: Polynomial, b: Polynomial) -> "Polynomial | None":
    """The gcd the proofs settle, after checking the cofactors they return."""
    proven = brown._gcd_modular(a, b, a.variables_present(), b.variables_present())
    if proven is None:
        return None
    g, a_g, b_g = proven
    assert (g * a_g, g * b_g) == (a, b)
    return g


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
    r1 = brown._residues(nvars)[1]
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
    terms[exps] = coeff * GaussianRational(Fraction(1, multiple * brown._P))
    a = Polynomial(a.nvars, terms)
    assert _modular(a, b) is None
    assert _to_sympy(Polynomial.gcd(a, b)) == _lex_monic_gcd(a, b)


def _count_gcd_work(monkeypatch) -> dict[str, int]:
    counts = {"brown": 0, "divide": 0}
    gcd_cofactors, divide = brown.gcd_cofactors, brown._divide_exact

    def counted_brown(f, g):
        counts["brown"] += 1
        return gcd_cofactors(f, g)

    def counted_divide(num, div):
        counts["divide"] += 1
        return divide(num, div)

    monkeypatch.setattr(brown, "gcd_cofactors", counted_brown)
    # The one Z[i] long division.
    monkeypatch.setattr(brown, "_divide_exact", counted_divide)
    return counts


def test_a_coprime_multi_term_pair_costs_no_division(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.one(2)
    a, b = x * x + y + one, x + y * y + one.scale(3)
    counts = _count_gcd_work(monkeypatch)
    assert Polynomial.gcd(a, b) == one
    assert a.cofactors(b) == (one, a, b)
    assert counts == {"brown": 0, "divide": 0}


def test_a_dividing_operand_costs_one_division_and_no_brown(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.one(2)
    b = (x + y.scale(GaussianRational(0, 2)) + one).scale(Fraction(3, 4))
    a = b * (x - y + one.scale(2))
    counts = _count_gcd_work(monkeypatch)
    for first, second in ((a, b), (b, a)):
        counts.update(brown=0, divide=0)
        g, first_g, second_g = first.cofactors(second)
        assert g == b.monic()
        assert (g * first_g, g * second_g) == (first, second)
        assert counts == {"brown": 0, "divide": 1}


def test_brown_cofactors_are_its_certifying_quotients(monkeypatch):
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.one(2)
    u = x * y + y.scale(Fraction(1, 3)) + one
    a, b = u * (x - y), u * (x * x + y.scale(GaussianRational(0, 1)))
    counts = _count_gcd_work(monkeypatch)
    g, a_g, b_g = a.cofactors(b)
    assert g == u.monic()
    assert (g * a_g, g * b_g) == (a, b)
    # One prime suffices, and both quotients come from the two divisions
    # that certify the gcd: cofactors divides nothing again.
    assert counts == {"brown": 1, "divide": 2}


# -- Brown's failure modes: each case must end, with sympy's answer ------------------


@contextmanager
def _ends_within(seconds: int):
    """Fail, instead of hanging, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"did not end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _on_brown_path(a: Polynomial, b: Polynomial, monkeypatch) -> list[int]:
    """Check cofactors on Brown's path; return the primes its images used."""
    primes = []
    pgcd = brown._pgcd

    def recorded(f, g, p, *base):
        primes.append(p)
        return pgcd(f, g, p, *base)

    _without_proofs(monkeypatch)
    monkeypatch.setattr(brown, "_pgcd", recorded)
    with _ends_within(60):
        _check_cofactors(a, b)
    return sorted(set(primes))


def _variables(nvars: int) -> list[Polynomial]:
    return [Polynomial.variable(i, nvars) for i in range(nvars)]


def test_unlucky_evaluation_points_are_not_repeated_for_every_prime(monkeypatch):
    x0, x1, x2 = _variables(3)
    one = Polynomial.one(3)
    # At (x1, x2) = (1, 1) the images share more than the gcd, so points
    # must not be 1, 2, 3, ...
    square = (x0.scale(2) - one.scale(3)) ** 2
    a = (x0 * x2 * x2).scale(8) * square
    b = square * ((x0 * x2).scale(3) + (x1 * x2).scale(2) - one.scale(2)) ** 2
    _on_brown_path(a, b, monkeypatch)
    assert Polynomial.gcd(a, b) == x0 * x0 - x0.scale(3) + one.scale(Fraction(9, 4))
    # At x1 = 1, b is a constant times a.
    a, b = (x0 - one) * (x0 + one.scale(2)), (x0 - one) * (x0 + x1.scale(2))
    _on_brown_path(a, b, monkeypatch)
    assert Polynomial.gcd(a, b) == x0 - one
    # Where x0 = x2, x0*x1 - x2 gains the factor x1 - 1, so two levels that
    # shared their points would meet an unlucky one in every call.
    a, b = (x1 - one) * (x0 * x1 - x2), (x1 - one) ** 2
    _on_brown_path(a, b, monkeypatch)
    assert Polynomial.gcd(a, b) == x1 - one
    # x1 = 2^64 is the first point of every prime, and there b is 2^64 times
    # a: only the division modulo p that checks each candidate rejects it.
    a, b = (x0 - one) * (x0 + one.scale(2)), (x0 - one) * (x0.scale(2**64) + x1.scale(2))
    _on_brown_path(a, b, monkeypatch)
    assert Polynomial.gcd(a, b) == x0 - one


def test_a_leading_coefficient_divisible_by_the_first_prime_skips_it(monkeypatch):
    x0, x1 = _variables(2)
    one = Polynomial.one(2)
    u = x0 + x1 + one
    a, b = u * (x0.scale(brown._P) + one), u * (x0 - x1.scale(2))
    assert brown._P not in _on_brown_path(a, b, monkeypatch)


@pytest.mark.parametrize("big", [2**41 + 1, GaussianRational(3, 2**41 + 1)])
def test_a_coefficient_above_one_prime_needs_more(big, monkeypatch):
    x0, x1 = _variables(2)
    one = Polynomial.one(2)
    u = x0 + x1.scale(big) + one
    a, b = u * (x0 - x1), u * (x0 + one.scale(2))
    assert len(_on_brown_path(a, b, monkeypatch)) >= 2


def test_a_gaussian_factor_comes_back_from_one_image(monkeypatch):
    x0, x1 = _variables(2)
    one = Polynomial.one(2)
    u = x0 + x1.scale(GaussianRational(0, 1))
    a, b = u * (x0 - x1 + one), u * (x1 + one.scale(2)) * u
    assert _on_brown_path(a, b, monkeypatch) == [brown._P]
