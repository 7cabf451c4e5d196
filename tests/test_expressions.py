"""Grammar, canonical printing, and serialization round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsymplectic.charts import Transition
from oddsymplectic.errors import (
    ExpressionSyntaxError,
    NonInvertibleBody,
    UnknownGenerator,
)
from oddsymplectic import expressions
from oddsymplectic.expressions import (
    MAX_EXPONENT,
    MAX_PRODUCT_TERMS,
    chart_from_dict,
    chart_to_dict,
    format_superfunction,
    parse_expression,
    superfunction_from_dict,
    superfunction_to_dict,
    transition_from_dict,
    transition_to_dict,
)
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.poly import Polynomial
from oddsymplectic.scalar import Scalar
from oddsymplectic.superalgebra import Chart, SuperFunction
from helpers import gens, one


# -- parsing ------------------------------------------------------------------------


def test_parse_basic_expressions():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    assert parse_expression("x1*th1 + 2", chart) == x1 * th1 + 2
    assert parse_expression("th1*th1", chart).is_zero()
    assert parse_expression("th2*th1", chart) == -(th1 * th2)
    assert parse_expression("x1^3 - 2*x2", chart) == x1 * x1 * x1 - 2 * x2
    assert parse_expression("-x1^2", chart) == -(x1 * x1)
    assert parse_expression("(x1 + th1)^2", chart) == x1 * x1 + 2 * x1 * th1


def test_parse_rationals_and_imaginary_unit():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    assert parse_expression("3/2", chart) == one(chart).scale(Fraction(3, 2))
    assert parse_expression("2/7*x1", chart) == x1.scale(Fraction(2, 7))
    assert parse_expression("I*I", chart) == -one(chart)
    assert parse_expression("(1 + 2*I)*th1", chart) == th1.scale(
        GaussianRational(1, 2)
    )
    assert parse_expression("1/x1", chart) == x1.invert()
    assert parse_expression("x1^-2", chart) == x1.invert() * x1.invert()


def test_parse_derivative_calls():
    chart = Chart.darboux(2)
    x1, th1, th2 = gens(chart, "x1", "th1", "th2")
    assert parse_expression("D(x1^2, x1)", chart) == 2 * x1
    assert parse_expression("D(x1*th1, th1)", chart) == x1
    assert parse_expression("D(th1*th2, th2)", chart) == -th1
    assert parse_expression("D(D(x1*th1, th1), x1)", chart) == one(chart)


def test_parse_hbar_and_externals():
    chart = Chart.darboux(1, externals=("eps1",))
    x1, eps1, hbar = gens(chart, "x1", "eps1", "hbar")
    assert parse_expression("hbar*x1 + eps1", chart) == hbar * x1 + eps1


def test_parse_error_positions():
    chart = Chart.darboux(1)
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("x1 +", chart)
    assert excinfo.value.column == 5
    assert "column 5" in str(excinfo.value)

    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("x1 + 1.5", chart)
    assert "decimal" in str(excinfo.value)
    assert excinfo.value.column == 7

    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("x1 ? 2", chart)
    assert excinfo.value.column == 4

    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("x1\n+ (2", chart)
    assert excinfo.value.line == 2
    assert "line 2" in str(excinfo.value)

    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1 2", chart)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1^th1", chart)
    with pytest.raises(UnknownGenerator):
        parse_expression("y7 + 1", chart)
    with pytest.raises(NonInvertibleBody):
        parse_expression("1/th1", chart)


def _count_powers(monkeypatch) -> list[int]:
    """Record the exponent of every ``SuperFunction.__pow__`` call."""
    calls: list[int] = []
    original = SuperFunction.__pow__

    def counting(self, exponent):
        calls.append(exponent)
        return original(self, exponent)

    monkeypatch.setattr(SuperFunction, "__pow__", counting)
    return calls


def test_oversized_product_is_refused_before_its_right_power_expands(monkeypatch):
    calls = _count_powers(monkeypatch)
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("(1+x1+x2+hbar)^24*(1+x1+x2+hbar)^24", Chart.darboux(2))
    # 2926 terms (2925 over the denominator one) on each side.
    assert f"product of {2926 * 2926} term pairs, more than {MAX_PRODUCT_TERMS}" in str(
        excinfo.value
    )
    assert excinfo.value.column == 18
    assert calls == [24]


def test_power_prediction_counts_what_the_power_expands_to(monkeypatch):
    chart = Chart.darboux(2)
    monkeypatch.setattr(expressions, "MAX_PRODUCT_TERMS", 10)
    calls = _count_powers(monkeypatch)
    # x1^64 is one term over one: 5 * 2 pairs, at the bound.
    assert parse_expression("(1+x1)^3*x1^64", chart) == parse_expression("(1+x1)^3", chart) * (
        parse_expression("x1", chart) ** 64
    )
    # (1+x2)^2 has three terms over one: 5 * 4 pairs, refused unexpanded.
    calls.clear()
    with pytest.raises(ExpressionSyntaxError, match="product of 20 term pairs, more than 10"):
        parse_expression("(1+x1)^3*(1+x2)^2", chart)
    assert calls == [3]


# -- printing -----------------------------------------------------------------------


def test_format_basic_values():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    assert format_superfunction(SuperFunction.zero(chart)) == "0"
    assert format_superfunction(one(chart)) == "1"
    assert format_superfunction(x1 * th1 + 2) == "2 + x1*th1"
    assert format_superfunction(-th1) == "-th1"
    assert format_superfunction(th1 * th2 - x2 * th1) == "-x2*th1 + th1*th2"
    assert format_superfunction(x1.invert() * th1) == "(1)/(x1)*th1"
    assert format_superfunction(th1.scale(GaussianRational(1, 2))) == "(1 + 2*I)*th1"


def test_format_orders_polynomials_canonically():
    chart = Chart.darboux(1)
    x1, hbar = gens(chart, "x1", "hbar")
    value = one(chart) + x1 + x1 * x1 + hbar
    assert format_superfunction(value) == "x1^2 + x1 + hbar + 1"


def test_print_parse_round_trip():
    chart = Chart.darboux(2, externals=("eps1",))
    x1, x2, th1, th2, eps1, hbar = gens(
        chart, "x1", "x2", "th1", "th2", "eps1", "hbar"
    )
    samples = [
        SuperFunction.zero(chart),
        one(chart),
        -one(chart),
        x1 * x2 - th1 * th2,
        x1.invert() + x2.scale(Fraction(-3, 4)) * th1,
        (one(chart) + x1).invert() * th1 * th2 - eps1 * x2,
        hbar * hbar * th1 - one(chart).scale(GaussianRational(0, 1)) * x1,
        th1.scale(GaussianRational(Fraction(1, 3), Fraction(-2, 5))),
        x1 * x1 * x1 + 3 * x1 * x2 - 2,
        (x1 * th1 + x2 * th2).scale(Fraction(1, 2)),
        x1 ** (2 * MAX_EXPONENT + 1) * th1 - (one(chart) + x2) ** -(MAX_EXPONENT + 1),
    ]
    for value in samples:
        assert parse_expression(format_superfunction(value), chart) == value


_ROUND_TRIP_CHART = Chart.darboux(2, externals=("eps1",))
_parts = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_coefficients = st.one_of(
    st.builds(GaussianRational, st.integers(-5, 5)),
    st.builds(GaussianRational, _parts),
    st.builds(GaussianRational, _parts, _parts),
)


@st.composite
def _polynomials(draw):
    nvars = _ROUND_TRIP_CHART.nvars
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return Polynomial(nvars, draw(st.dictionaries(exps, _coefficients, max_size=4)))


@st.composite
def _superfunctions(draw):
    """Sums of odd monomials whose coefficients have Gaussian, rational and
    integer parts over denominators that are one, constant, or polynomial."""
    chart = _ROUND_TRIP_CHART
    masks = st.integers(0, (1 << chart.nodds) - 1)
    denominators = st.one_of(st.none(), _polynomials().filter(lambda p: not p.is_zero()))
    terms = {
        mask: Scalar(draw(_polynomials()), draw(denominators))
        for mask in draw(st.lists(masks, max_size=4, unique=True))
    }
    return SuperFunction(chart, terms)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_superfunctions())
def test_print_parse_round_trip_property(value):
    text = format_superfunction(value)
    assert parse_expression(text, _ROUND_TRIP_CHART) == value


def test_str_uses_canonical_format():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    assert str(x1 * th1 + 1) == "1 + x1*th1"


# -- JSON ---------------------------------------------------------------------------


def test_chart_dict_round_trip():
    chart = Chart.darboux(2, name="Q", externals=("eps1",))
    assert chart_from_dict(chart_to_dict(chart)) == chart
    fchart = Chart.forms(1)
    assert chart_from_dict(chart_to_dict(fchart)) == fchart


def test_superfunction_dict_round_trip():
    chart = Chart.darboux(2, externals=("eps1",))
    x1, x2, th1, th2, eps1 = gens(chart, "x1", "x2", "th1", "th2", "eps1")
    samples = [
        SuperFunction.zero(chart),
        x1.invert() * th1 * th2 + x2,
        eps1 * th1 - one(chart).scale(GaussianRational(0, 1)),
    ]
    for value in samples:
        data = superfunction_to_dict(value)
        assert superfunction_from_dict(data) == value


def test_superfunction_dict_shape():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    data = superfunction_to_dict(2 * x1 * th1 + x1)
    assert data["chart"]["odds"] == ["th1"]
    assert data["terms"] == [
        {"monomial": [], "num": "x1", "den": "1"},
        {"monomial": ["th1"], "num": "2*x1", "den": "1"},
    ]


def test_transition_dict_round_trip():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    scaling = Transition.scaling(src, tgt, [2])
    data = transition_to_dict(scaling)
    rebuilt = transition_from_dict(data)
    assert rebuilt.source == src
    assert rebuilt.target == tgt
    assert rebuilt.images == scaling.images


LINE = {"evens": ["x1"], "odds": ["th1"]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "superfunction field 'chart' is missing"),
        ([], "a superfunction must be a JSON object, got list"),
        ({"chart": 5}, "superfunction field 'chart' must be a JSON object"),
        ({"chart": LINE, "terms": 5}, "superfunction field 'terms' must be a list"),
        ({"chart": LINE, "terms": {"num": "1"}}, "superfunction field 'terms' must be a list"),
        ({"chart": LINE, "terms": ["x1"]}, "a superfunction term must be a JSON object"),
        ({"chart": LINE, "terms": [{"den": "2"}]}, "term field 'num' is missing"),
        (
            {"chart": LINE, "terms": [{"num": "1", "monomial": "th1"}]},
            "term field 'monomial' must be a list",
        ),
    ],
)
def test_malformed_superfunction_dict_names_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        superfunction_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "a transition must be a JSON object, got list"),
        ({}, "transition field 'source' is missing"),
        ({"source": LINE}, "transition field 'target' is missing"),
        ({"source": [], "target": LINE}, "transition field 'source' must be a JSON object"),
        ({"source": LINE, "target": LINE, "images": []}, "transition field 'images'"),
    ],
)
def test_malformed_transition_dict_names_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        transition_from_dict(data)
