"""Supercommutative algebra: monomial order, signs, inversion, substitution."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsymplectic.charts import Density, Transition
from oddsymplectic.errors import (
    ChartMismatch,
    NoExactSquareRoot,
    NonInvertibleBody,
    ParityViolation,
    UnknownGenerator,
)
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.forms import BaseDensity
from oddsymplectic.laplacians import VolumeForm
from oddsymplectic.master import SemidensityMasterReport, nilpotent_exponential
from oddsymplectic.poly import Polynomial
from oddsymplectic.scalar import Scalar
from oddsymplectic.superalgebra import Chart, OddKind, SuperFunction, koszul_sign
from helpers import gens


def test_chart_generator_order_is_kind_then_index():
    chart = Chart(
        name="D",
        even_coords=("x1", "x2"),
        odd_coords=("th1", "th2"),
        fiber_odds=("xi1", "xi2"),
        external_odds=("eps1",),
    )
    assert chart.odds == ("th1", "th2", "xi1", "xi2", "eps1")
    assert chart.kind_of_odd(0) is OddKind.COORDINATE
    assert chart.kind_of_odd(2) is OddKind.FIBER
    assert chart.kind_of_odd(4) is OddKind.EXTERNAL
    assert chart.evens == ("x1", "x2", "hbar")


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Chart(name="B", even_coords=("x1",), odd_coords=("x1",))


def test_koszul_sign_counts_inversions():
    assert koszul_sign(0b001, 0b010) == 1  # ascending, no swap
    assert koszul_sign(0b010, 0b001) == -1  # one swap
    assert koszul_sign(0b011, 0b100) == 1
    assert koszul_sign(0b100, 0b011) == 1  # two swaps


# -- products against a sign-counting oracle ---------------------------------------

PRODUCTS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _charts(draw):
    """Darboux charts at n = 1..5 with zero to two external odd constants."""
    n = draw(st.integers(1, 5))
    externals = ("eps1", "eps2")[: draw(st.integers(0, 2))]
    return Chart.darboux(n, externals=externals)


@st.composite
def _functions(draw, chart, parity=None):
    """Up to five terms ``c x_k^e m``, of one parity when ``parity`` is given."""
    masks = draw(st.lists(st.integers(0, (1 << chart.nodds) - 1), max_size=5, unique=True))
    if parity is not None:
        masks = [m for m in masks if m.bit_count() & 1 == parity]
    terms = {}
    for mask in masks:
        c = draw(st.integers(-3, 3).filter(bool))
        x = Scalar.variable(draw(st.integers(0, chart.nvars - 1)), chart.nvars)
        terms[mask] = x ** draw(st.integers(0, 2)) * c
    return SuperFunction(chart, terms)


def _indices(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _oracle_product(f, g):
    """``f g`` with monomials as lists of generator indices.

    Each product of two monomials is sorted by adjacent swaps, one sign flip
    per swap of two odd generators, and vanishes when a generator repeats.
    """
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            word = _indices(m1) + _indices(m2)
            if len(set(word)) < len(word):
                continue
            sign = 1
            for end in range(len(word) - 1, 0, -1):
                for i in range(end):
                    if word[i] > word[i + 1]:
                        word[i], word[i + 1] = word[i + 1], word[i]
                        sign = -sign
            key = tuple(word)
            out[key] = out.get(key, Scalar.zero(f.chart.nvars)) + c1 * c2 * sign
    return {key: c for key, c in out.items() if not c.is_zero()}


def _by_indices(f):
    return {tuple(_indices(mask)): c for mask, c in f.terms.items()}


@PRODUCTS
@given(st.data())
def test_products_match_the_sign_counting_oracle(data):
    chart = data.draw(_charts())
    f = data.draw(_functions(chart))
    g = data.draw(
        st.one_of(
            _functions(chart),
            st.just(f),
            st.just(-f),
            st.just(f.odd_part()),
        )
    )
    product = f * g
    assert _by_indices(product) == _oracle_product(f, g)
    assert all(not c.is_zero() for c in product.terms.values())
    # The odd part squares to zero: its cross terms cancel pairwise.
    odd = f.odd_part()
    assert (odd * odd).terms == {}


@PRODUCTS
@given(st.data())
def test_homogeneous_products_supercommute_and_associate(data):
    chart = data.draw(_charts())
    p, q, r = (data.draw(st.integers(0, 1)) for _ in range(3))
    f = data.draw(_functions(chart, p))
    g = data.draw(_functions(chart, q))
    h = data.draw(_functions(chart, r))
    assert f * g == (g * f).scale(-1 if p * q else 1)
    assert (f * g) * h == f * (g * h)


def test_odd_generators_anticommute(c2):
    th1, th2 = gens(c2, "th1", "th2")
    assert th2 * th1 == -(th1 * th2)
    assert (th1 * th1).is_zero()
    x1, _ = gens(c2, "x1", "x2")
    assert x1 * th1 == th1 * x1


def test_left_odd_derivative_signs(c2):
    th1, th2 = gens(c2, "th1", "th2")
    m = th1 * th2
    assert m.partial_odd("th1") == th2
    assert m.partial_odd("th2") == -th1
    assert m.partial_odd("th1").partial_odd("th2") == SuperFunction.one(c2)


def test_even_derivative(c2):
    x1, th1 = gens(c2, "x1", "th1")
    f = x1 * x1 * th1
    assert f.partial_even("x1") == x1 * th1 * 2
    assert f.partial_even("x2").is_zero()


def test_parity_classification(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    assert (x1 + th1 * th2).parity() == 0
    assert th1.parity() == 1
    assert (x1 + th1).parity() is None
    assert SuperFunction.zero(c2).parity() == 0
    assert (x1 + th1).even_part() == x1
    assert (x1 + th1).odd_part() == th1


def test_chart_mismatch_raises(c2):
    other = Chart.darboux(1)
    with pytest.raises(ChartMismatch):
        SuperFunction.generator(c2, "x1") + SuperFunction.generator(other, "x1")


def test_invert_body_plus_nilpotent(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    f = x1 + th1 * th2
    inv = f.invert()
    assert f * inv == SuperFunction.one(c2)
    # 1/(x + th1 th2) = 1/x - th1 th2 / x^2
    expected = SuperFunction.one(c2) / x1 - th1 * th2 / (x1 * x1)
    assert inv == expected


def test_invert_requires_invertible_body(c2):
    th1, = gens(c2, "th1")
    with pytest.raises(NonInvertibleBody):
        th1.invert()
    with pytest.raises(NonInvertibleBody):
        SuperFunction.zero(c2).invert()


def test_sqrt_even_with_soul(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    f = x1 * x1 * (SuperFunction.one(c2) + th1 * th2)
    root = f.sqrt_even()
    assert root * root == f
    assert root == x1 * (SuperFunction.one(c2) + (th1 * th2).scale(Fraction(1, 2)))


def test_sqrt_even_root_is_positive_at_origin(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    one = SuperFunction.one(c2)
    # (1 - 2 x1)^2 has the two roots +/-(1 - 2 x1); the one with positive
    # value at the origin wins even though its leading coefficient is negative.
    f = (one - x1.scale(2)) * (one - x1.scale(2))
    assert f.sqrt_even() == one - x1.scale(2)
    # with soul attached the same body normalisation applies
    g = f * (one + th1 * th2)
    root = g.sqrt_even()
    assert root * root == g
    assert root.terms[0].num.constant_value() == 1
    # a body vanishing at the origin falls back to the leading-coefficient rule
    assert (x1 * x1).sqrt_even() == x1


def test_sqrt_even_rejections(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    with pytest.raises(ParityViolation):
        th1.sqrt_even()
    with pytest.raises(NoExactSquareRoot):
        (th1 * th2).sqrt_even()  # zero body
    with pytest.raises(NoExactSquareRoot):
        (x1 + th1 * th2).sqrt_even()  # x is not a square
    f = x1 * x1 + th1 * th2
    root = f.sqrt_even()
    assert root * root == f


def _round_trips(value):
    yield pickle.loads(pickle.dumps(value))
    yield copy.copy(value)
    yield copy.deepcopy(value)


def test_values_pickle_and_copy(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    f = (x1 + th1 * th2) / (SuperFunction.one(c2) + x2) + x1.scale(GaussianRational(0, 1)) * th1
    values = [
        GaussianRational(1, 2),
        GaussianRational(Fraction(-3, 4)),
        x1.terms[0].num,
        *f.terms.values(),
        f,
    ]
    for value in values:
        for twin in _round_trips(value):
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
    # A denominator-one scalar comes back holding the shared one.
    den_one = x1.terms[0]
    for twin in _round_trips(den_one):
        assert twin.den is Polynomial.one(den_one.nvars)


def test_records_compare_hash_and_print_by_their_fields_and_refuse_assignment(c2):
    twin = Chart.darboux(2)
    assert twin is not c2 and twin == c2 and hash(twin) == hash(c2)
    assert c2 != Chart.darboux(2, name="D")
    assert Chart("C", ("x1",)) == Chart("C", ("x1",), (), (), (), ("hbar",))
    assert repr(c2) == (
        "Chart(name='C', even_coords=('x1', 'x2'), odd_coords=('th1', 'th2'),"
        " fiber_odds=(), external_odds=(), params=('hbar',))"
    )
    one = SuperFunction.one(c2)
    # Equal fields make equal records only within one class.
    assert VolumeForm(c2, one) != BaseDensity(c2, one)
    report = SemidensityMasterReport(Density.semidensity(one), True)
    assert report.exact_matches is None
    assert report == SemidensityMasterReport(Density(c2, one, Fraction(1, 2)), True, None)
    assert Density(c2, one, 1).weight == Fraction(1)
    for record in (c2, report):
        for copied in _round_trips(record):
            assert copied == record and hash(copied) == hash(record)
        with pytest.raises(AttributeError):
            record.name = "D"
        with pytest.raises(AttributeError):
            del record.name
    # A field that cannot be hashed makes the record unhashable, as a tuple would.
    with pytest.raises(TypeError):
        hash(Transition.identity(c2))


# -- the nilpotent series behind invert, sqrt_even and exp --------------------------


@pytest.fixture
def c5e():
    """Six odd generators: five coordinates and one external constant."""
    return Chart.darboux(5, externals=("eps1",))


def test_invert_with_odd_nilpotent_parts(c5e):
    x1, x2, th1, th2, th3, eps1 = gens(c5e, "x1", "x2", "th1", "th2", "th3", "eps1")
    one = SuperFunction.one(c5e)
    for f in (
        x1 + th1,
        one.scale(3) + x2 * th1 + th2 * th3 * eps1,
        x1 * x1 + one + th1 + th2 + th3 * th1 * x2 + th1 * th2 * th3 * eps1,
        (one + x2) / (one + x1) + eps1 * th3 + th1 * th2,
    ):
        inv = f.invert()
        assert f * inv == one
        assert inv * f == one


def test_sqrt_even_squares_back(c5e):
    x1, x2, th1, th2, th3, th4, th5, eps1 = gens(
        c5e, "x1", "x2", "th1", "th2", "th3", "th4", "th5", "eps1"
    )
    one = SuperFunction.one(c5e)
    for f in (
        x1 * x1 * (one + th1 * th2 + th3 * th4 * x2),
        ((one + x2) * (one + x2)).scale(4) + th1 * th5 + th2 * th3 * th4 * eps1,
        (one + x1) * (one + x1) + th1 * th2 + th3 * th4 + th5 * eps1,
    ):
        root = f.sqrt_even()
        assert root * root == f


def test_exp_of_a_sum_of_commuting_even_nilpotents(c5e):
    x1, th1, th2, th3, th4, th5, eps1 = gens(
        c5e, "x1", "th1", "th2", "th3", "th4", "th5", "eps1"
    )
    a = x1 * th1 * th2 + th3 * th4
    b = th5 * eps1 + (th1 * th4).scale(Fraction(1, 3))
    assert nilpotent_exponential(a + b) == nilpotent_exponential(a) * nilpotent_exponential(b)


def test_series_keep_the_power_where_k_times_d_reaches_nodds(c5e):
    # u has lowest odd degree d = 2 and u^3 = 6 th1 th2 th3 th4 th5 eps1 with
    # 3 * 2 == nodds == 6: the sums stop only after this term.
    th1, th2, th3, th4, th5, eps1 = gens(c5e, "th1", "th2", "th3", "th4", "th5", "eps1")
    one = SuperFunction.one(c5e)
    u = th1 * th2 + th3 * th4 + th5 * eps1
    assert c5e.nodds == 6
    assert not (u**3).is_zero()
    assert (u**4).is_zero()
    expected = one + u + (u**2).scale(Fraction(1, 2)) + (u**3).scale(Fraction(1, 6))
    assert nilpotent_exponential(u) == expected
    assert (one + u).invert() == one - u + u**2 - u**3
    root = (one + u).sqrt_even()
    assert root == one + u.scale(Fraction(1, 2)) - (u**2).scale(Fraction(1, 8)) + (
        u**3
    ).scale(Fraction(1, 16))
    assert root * root == one + u


def test_substitute_even_and_odd(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    f = x1 * th1 + x2 * th2
    images = {"x1": x2, "th1": th2, "x2": x1, "th2": th1}
    g = f.substitute(images, c2)
    assert g == x2 * th2 + x1 * th1
    # a parity-violating image is rejected
    with pytest.raises(ParityViolation):
        f.substitute({"x1": th1}, c2)
    with pytest.raises(ParityViolation):
        f.substitute({"th1": x1}, c2)


def test_substitute_rational_coefficient(c2):
    x1, x2, th1 = gens(c2, "x1", "x2", "th1")
    f = th1 / x1
    g = f.substitute({"x1": x1 + x2}, c2)
    assert g == th1 / (x1 + x2)
    # denominator image with zero body is rejected
    with pytest.raises(NonInvertibleBody):
        f.substitute({"x1": SuperFunction.generator(c2, "th1") * SuperFunction.generator(c2, "th2")}, c2)


def test_substitute_missing_name_defaults_to_target(c2):
    x1, x2, th1 = gens(c2, "x1", "x2", "th1")
    f = x1 * th1
    assert f.substitute({}, c2) == f
    tiny = Chart.darboux(1)
    # generators the function does not use need no image in the target
    assert f.substitute({}, tiny) == SuperFunction.generator(tiny, "x1") * SuperFunction.generator(tiny, "th1")
    with pytest.raises(UnknownGenerator, match="no image for even generator 'x2' in chart"):
        (x2 * th1).substitute({}, tiny)  # x2 is used but has no image
    th2 = SuperFunction.generator(c2, "th2")
    with pytest.raises(UnknownGenerator, match="no image for odd generator 'th2' in chart"):
        (x1 * th2).substitute({}, tiny)
    # an explicit image stands in for a generator the target lacks
    swap = {"x2": SuperFunction.generator(tiny, "x1"), "th2": SuperFunction.generator(tiny, "th1")}
    assert (x2 * th2).substitute(swap, tiny) == f.substitute({}, tiny)


def test_berezin_integral_single(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    f = x1 * th1 * th2
    # extract th1 to the left: th1 th2 -> th2
    assert f.berezin_integral(["th1"]) == x1 * th2
    # extract th2: th1 th2 = -th2 th1 -> -th1
    assert f.berezin_integral(["th2"]) == -(x1 * th1)
    assert x1.berezin_integral(["th1"]).is_zero()


def test_berezin_integral_block(c2):
    th1, th2 = gens(c2, "th1", "th2")
    top = th1 * th2
    assert top.berezin_integral(["th1", "th2"]) == SuperFunction.one(c2)
    assert top.berezin_integral(["th2", "th1"]) == SuperFunction.one(c2)


def test_berezin_integral_matches_fourier_pin():
    # int exp(-I xi^1 th_1) D(xi^1) = -I th_1
    chart = Chart(name="D", even_coords=("x1",), odd_coords=("th1",), fiber_odds=("xi1",))
    th1 = SuperFunction.generator(chart, "th1")
    xi1 = SuperFunction.generator(chart, "xi1")
    i = GaussianRational(0, 1)
    integrand = SuperFunction.one(chart) - (xi1 * th1).scale(i)
    assert integrand.berezin_integral(["xi1"]) == th1.scale(-i)


def test_top_theta_normalisation():
    for n in (1, 2, 3):
        chart = Chart.darboux(n)
        top = SuperFunction.one(chart)
        for k in range(1, n + 1):
            top = top * SuperFunction.generator(chart, f"th{k}")
        names = [f"th{k}" for k in range(1, n + 1)]
        assert top.berezin_integral(names) == SuperFunction.one(chart)


def test_coefficients_in_param(c2):
    x1, th1 = gens(c2, "x1", "th1")
    hbar = SuperFunction.generator(c2, "hbar")
    f = x1 + hbar * th1 + hbar * hbar * x1
    split = f.coefficients_in_param("hbar")
    assert split[0] == x1
    assert split[1] == th1
    assert split[2] == x1


def test_retarget_between_charts():
    c = Chart.darboux(2)
    d = Chart(
        name="D", even_coords=("x1", "x2"), odd_coords=("th1", "th2"), fiber_odds=("xi1", "xi2")
    )
    f = SuperFunction.generator(c, "x1") * SuperFunction.generator(c, "th2")
    g = f.retarget(d)
    assert g == SuperFunction.generator(d, "x1") * SuperFunction.generator(d, "th2")
    back = g.retarget(c)
    assert back == f
    # dropping an unused odd block is fine; a used one is not
    xi = SuperFunction.generator(d, "xi1")
    with pytest.raises(UnknownGenerator):
        (g * xi).retarget(c)


def test_power_series_helpers(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    f = SuperFunction.one(c2) + th1 * th2
    assert f**3 == SuperFunction.one(c2) + (th1 * th2).scale(3)
    assert (x1 + th1) ** 2 == x1 * x1 + (x1 * th1).scale(2)
    assert (th1 + th2) ** 2 == SuperFunction.zero(c2)


def test_powers_of_an_even_function_with_nilpotent_terms(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    f = SuperFunction.one(c2).scale(2) + x1 + x2 * th1 * th2
    assert f**0 == 1
    assert f**1 is f
    product = SuperFunction.one(c2)
    for _ in range(5):
        product = product * f
    assert f**5 == product
    inverse = f.invert()
    assert f**-3 == inverse * inverse * inverse
    assert f**-3 * f**3 == 1
