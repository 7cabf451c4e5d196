"""Expression text, canonical printing, and JSON serialization.

The textual grammar shared by the library and the command line:

* identifiers name chart generators (``x1``, ``th1``, ``xi1``, ``eps1``,
  ``hbar``, ...) and the imaginary unit ``I``;
* ``+ - * / ^`` with the usual precedence, unary signs, and parentheses;
  exponents are integer literals (possibly signed);
* ``D(f, g)`` takes the derivative of ``f`` along the generator ``g``
  (left derivative along odd generators);
* literals are exact integers; rationals are written as quotients
  (``2/3``).  Decimal points are rejected;
* parentheses and ``D(...)`` calls nest at most :data:`MAX_NESTING` deep,
  an exponent's magnitude is at most :data:`MAX_EXPONENT`, a power may
  reach total degree at most :data:`MAX_POWER_DEGREE` and at most
  :data:`MAX_POWER_TERMS` monomials by the dense count, and a product or
  quotient at most :data:`MAX_PRODUCT_TERMS` term pairs; input past any of
  these bounds is an :class:`ExpressionSyntaxError`, not a crash or a
  computation that does not finish.

``format_superfunction`` emits a canonical form — terms ordered by odd
monomial, polynomial coefficients with lexicographically-leading monomials
first, powers above :data:`MAX_EXPONENT` written as products — and
``parse_expression`` inverts it exactly on every value the library can
produce.

JSON serialization represents a function as ``{"chart": ..., "terms":
[{"monomial": [...], "num": ..., "den": ...}]}`` with numerator and
denominator in the textual grammar, and a transition as its two charts plus
an image expression per generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping

from .errors import ExpressionSyntaxError, UnknownGenerator
from .gaussian import GaussianRational
from .scalar import Scalar
from .superalgebra import Chart, SuperFunction, _Record

if TYPE_CHECKING:
    from .charts import Transition

__all__ = [
    "DEFAULT_COUNT",
    "MAX_COUNT",
    "MAX_DIMENSION",
    "MAX_EXPONENT",
    "MAX_NESTING",
    "MAX_POWER_DEGREE",
    "MAX_POWER_TERMS",
    "MAX_PRODUCT_TERMS",
    "SUITE_NAMES",
    "parse_expression",
    "format_superfunction",
    "format_scalar",
    "chart_to_dict",
    "chart_from_dict",
    "superfunction_to_dict",
    "superfunction_from_dict",
    "transition_to_dict",
    "transition_from_dict",
]


# The parser recurses a few frames per nesting level; this bound keeps it well
# inside Python's default recursion limit.
MAX_NESTING = 100

# Largest exponent magnitude after ``^``.  Expanding a power costs time that
# grows with the exponent, so an unbounded one lets a short input run for
# hours; no use of the grammar needs more than a few.
MAX_EXPONENT = 64

# Bounds on what one power may expand to, checked before it is expanded.  A
# bounded exponent alone does not bound the result: ``((1+x1)^64)^64`` has
# degree 4096.  A power of total degree ``d`` in ``v`` variables has at most
# ``C(d + v, v)`` monomials, and expanding it costs about the square of that.
MAX_POWER_DEGREE = 4 * MAX_EXPONENT
MAX_POWER_TERMS = 5000

# Bound on ``terms(a) * terms(b)`` for one ``a * b`` or ``a / b``, checked
# before multiplying (and, from its predicted size, before expanding a power
# ``b``); ``terms`` counts the polynomial terms of every numerator and
# denominator.  Bounded powers alone do not bound products:
# ``(1+x1+x2+hbar)^24 * (1+x1+x2+hbar)^24`` multiplies 2926 by 2926 terms.
# The cost is about linear in the pairs, and at this bound it is close to
# that of the largest power allowed.
MAX_PRODUCT_TERMS = 250_000

# The command line's other input bounds live here too, because every
# subcommand loads this module and its parser reads them; ``sampling`` and
# ``suites`` import them from here.
#
# Largest number of generators in one block of any chart.
MAX_DIMENSION = 5

# The named suites, and the bounds on their checks per item.  The run time
# grows linearly with the count: at n = 5 each unit costs about 0.17 s for
# ``all``, so 256 is under a minute.
SUITE_NAMES = ("axioms", "laplacian", "bv", "fourier", "master", "all")
DEFAULT_COUNT = 12
MAX_COUNT = 256


# -- tokenizer ---------------------------------------------------------------------


class _Token(_Record):
    _fields = ("kind", "text", "line", "column")

    kind: str  # "int" | "name" | "punct" | "end"
    text: str
    line: int
    column: int

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self._set(kind=kind, text=text, line=line, column=column)


_PUNCT = set("+-*/^(),")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, column))
            i += 1
            column += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            if i < len(text) and text[i] == ".":
                raise ExpressionSyntaxError(
                    "decimal literals are not supported (use exact quotients)",
                    line,
                    column + (i - start),
                )
            tokens.append(_Token("int", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, column))
            column += i - start
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], chart: Chart) -> None:
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str) -> ExpressionSyntaxError:
        token = self.current
        return ExpressionSyntaxError(message, token.line, token.column)

    def expect_punct(self, text: str) -> None:
        token = self.current
        if token.kind != "punct" or token.text != text:
            raise self.fail(f"expected {text!r}")
        self.advance()

    def expression(self) -> SuperFunction:
        if self.depth > MAX_NESTING:
            raise self.fail(f"expression nested more than {MAX_NESTING} deep")
        self.depth += 1
        value = self.term()
        while self.current.kind == "punct" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        self.depth -= 1
        return value

    def term(self) -> SuperFunction:
        value = self.factor()
        while self.current.kind == "punct" and self.current.text in "*/":
            op = self.advance()
            left = _term_count(value)
            rhs = self.factor((left, op))
            _check_product(left * _term_count(rhs), op)
            value = value * rhs if op.text == "*" else value / rhs
        return value

    def factor(self, product: tuple[int, _Token] | None = None) -> SuperFunction:
        negate = False
        while self.current.kind == "punct" and self.current.text in "+-":
            negate ^= self.advance().text == "-"
        value = self.power(product)
        return -value if negate else value

    def power(self, product: tuple[int, _Token] | None = None) -> SuperFunction:
        base = self.atom()
        if self.current.kind == "punct" and self.current.text == "^":
            self.advance()
            sign = 1
            if self.current.kind == "punct" and self.current.text in "+-":
                if self.advance().text == "-":
                    sign = -1
            if self.current.kind != "int":
                raise self.fail("expected an integer exponent")
            exponent = int(self.current.text)
            if exponent > MAX_EXPONENT:
                raise self.fail(f"exponent larger than {MAX_EXPONENT}")
            degree, terms = _power_size(base, exponent)
            if degree > MAX_POWER_DEGREE:
                raise self.fail(
                    f"power of degree {degree}, more than {MAX_POWER_DEGREE}"
                )
            if terms > MAX_POWER_TERMS:
                raise self.fail(
                    f"power with up to {terms} terms, more than {MAX_POWER_TERMS}"
                )
            if product is not None:
                # Refuse an oversized product before expanding its right factor.
                left, op = product
                _check_product(left * _power_terms(base, exponent), op)
            self.advance()
            return base ** (sign * exponent)
        return base

    def atom(self) -> SuperFunction:
        token = self.current
        if token.kind == "int":
            self.advance()
            return SuperFunction.from_scalar(self.chart, int(token.text))
        if token.kind == "punct" and token.text == "(":
            self.advance()
            value = self.expression()
            self.expect_punct(")")
            return value
        if token.kind == "name":
            if (
                token.text == "D"
                and self.tokens[self.pos + 1].kind == "punct"
                and self.tokens[self.pos + 1].text == "("
            ):
                return self.derivative_call()
            self.advance()
            if token.text == "I":
                return SuperFunction.from_scalar(self.chart, GaussianRational(0, 1))
            if not self.chart.has_generator(token.text):
                raise UnknownGenerator(
                    f"{token.text!r} is not a generator of chart"
                    f" {self.chart.name!r} (at column {token.column})"
                )
            return SuperFunction.generator(self.chart, token.text)
        if token.kind == "end":
            raise self.fail("unexpected end of input")
        raise self.fail(f"unexpected {token.text!r}")

    def derivative_call(self) -> SuperFunction:
        self.advance()  # D
        self.expect_punct("(")
        value = self.expression()
        self.expect_punct(",")
        name_token = self.current
        if name_token.kind != "name":
            raise self.fail("expected a generator name")
        self.advance()
        if not self.chart.has_generator(name_token.text):
            raise UnknownGenerator(
                f"{name_token.text!r} is not a generator of chart"
                f" {self.chart.name!r} (at column {name_token.column})"
            )
        self.expect_punct(")")
        return value.derivative(name_token.text)


def _term_count(f: SuperFunction) -> int:
    """Polynomial terms over all numerators and denominators of ``f``."""
    return sum(len(c.num.terms) + len(c.den.terms) for c in f.terms.values())


def _check_product(pairs: int, op: _Token) -> None:
    """Refuse a product or quotient of more than :data:`MAX_PRODUCT_TERMS` term pairs."""
    if pairs > MAX_PRODUCT_TERMS:
        raise ExpressionSyntaxError(
            f"product of {pairs} term pairs, more than {MAX_PRODUCT_TERMS}",
            op.line,
            op.column,
        )


def _power_terms(base: SuperFunction, exponent: int) -> int:
    """Predicted :func:`_term_count` of the body of ``base^exponent``.

    A polynomial of ``t`` terms and degree ``d`` in ``v`` variables has at most
    ``min(C(d*e + v, v), C(t + e - 1, e))`` terms in its ``e``-th power (one
    for ``x1^64``), exactly that many when no two products of terms collide.
    """
    body = base.body()
    count = 0
    for poly in (body.num, body.den):
        if poly.terms:
            t = len(poly.terms)
            v = len(poly.variables_present())
            dense = math.comb(poly.total_degree() * exponent + v, v)
            count += min(dense, math.comb(t + exponent - 1, exponent))
    return count


def _power_size(base: SuperFunction, exponent: int) -> tuple[int, int]:
    """Total degree of ``base^exponent`` and its dense monomial count.

    The degree is the exponent times the largest total degree of a numerator
    or denominator in ``base``; the count is ``C(degree + v, v)`` over the
    ``v`` even variables that occur.
    """
    degree = 0
    present: set[int] = set()
    for coeff in base.terms.values():
        for poly in (coeff.num, coeff.den):
            degree = max(degree, poly.total_degree())
            present |= poly.variables_present()
    degree *= exponent
    return degree, math.comb(degree + len(present), len(present))


def parse_expression(text: str, chart: Chart) -> SuperFunction:
    """Parse an expression in the shared grammar against a chart's generators."""
    parser = _Parser(_tokenize(text), chart)
    value = parser.expression()
    if parser.current.kind != "end":
        raise parser.fail("syntax error: unexpected trailing input")
    return value


# -- canonical printer ----------------------------------------------------------------


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _format_gaussian(value: GaussianRational) -> str:
    """A Gaussian rational as an expression (a sum when both parts appear)."""
    if not value.im:
        return _format_fraction(value.re)
    if value.im == 1:
        imaginary = "I"
    elif value.im == -1:
        imaginary = "-I"
    else:
        imaginary = f"{_format_fraction(value.im)}*I"
    if not value.re:
        return imaginary
    joiner = " - " if imaginary.startswith("-") else " + "
    return _format_fraction(value.re) + joiner + imaginary.lstrip("-")


def _is_sum(text: str) -> bool:
    """True when the text is a sum at paren depth zero (so it needs wrapping)."""
    depth = 0
    for position, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and position > 0 and ch in "+-":
            return True
    return False


def _format_poly_term(
    exps: tuple[int, ...], coeff: GaussianRational, names: tuple[str, ...]
) -> str:
    factors = []
    for name, e in zip(names, exps):
        # Keep every printed exponent within the parser's bound.
        while e > MAX_EXPONENT:
            factors.append(f"{name}^{MAX_EXPONENT}")
            e -= MAX_EXPONENT
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    coeff_text = _format_gaussian(coeff)
    if not factors:
        return coeff_text if not _is_sum(coeff_text) else f"({coeff_text})"
    if coeff_text == "1":
        return "*".join(factors)
    if coeff_text == "-1":
        return "-" + "*".join(factors)
    if _is_sum(coeff_text):
        coeff_text = f"({coeff_text})"
    return coeff_text + "*" + "*".join(factors)


def _join_terms(rendered: list[str]) -> str:
    out = rendered[0]
    for text in rendered[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


def _format_polynomial(poly, names: tuple[str, ...]) -> str:
    if poly.is_zero():
        return "0"
    ordered = sorted(poly.terms.items(), key=lambda item: item[0], reverse=True)
    return _join_terms([_format_poly_term(e, c, names) for e, c in ordered])


def format_scalar(scalar: Scalar, names: tuple[str, ...]) -> str:
    """A rational coefficient in the shared grammar (canonical term order)."""
    num = _format_polynomial(scalar.num, names)
    if scalar.is_polynomial():
        return num
    den = _format_polynomial(scalar.den, names)
    return f"({num})/({den})"


def format_superfunction(f: SuperFunction) -> str:
    """Canonical text: odd monomials in mask order, coefficients canonical."""
    if f.is_zero():
        return "0"
    evens = f.chart.evens
    odds = f.chart.odds
    rendered: list[str] = []
    for mask in sorted(f.terms):
        coeff = f.terms[mask]
        monomial = "*".join(odds[b] for b in range(len(odds)) if mask >> b & 1)
        if not monomial:
            rendered.append(format_scalar(coeff, evens))
            continue
        if coeff == 1:
            rendered.append(monomial)
            continue
        if coeff == -1:
            rendered.append("-" + monomial)
            continue
        text = format_scalar(coeff, evens)
        if _is_sum(text):
            text = f"({text})"
        rendered.append(text + "*" + monomial)
    return _join_terms(rendered)


# -- JSON serialization -----------------------------------------------------------------


def chart_to_dict(chart: Chart) -> dict[str, Any]:
    return {
        "name": chart.name,
        "evens": list(chart.even_coords),
        "odds": list(chart.odd_coords),
        "fibers": list(chart.fiber_odds),
        "externals": list(chart.external_odds),
        "params": list(chart.params),
    }


def _mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _field(data: Mapping[str, Any], key: str, owner: str) -> Any:
    if key not in data:
        raise ValueError(f"{owner} field {key!r} is missing")
    return data[key]


def _chart_field(data: Mapping[str, Any], key: str, owner: str) -> Chart:
    return chart_from_dict(_mapping(_field(data, key, owner), f"{owner} field {key!r}"))


def _names(
    data: Mapping[str, Any], key: str, default: tuple[str, ...] = (), *, owner: str = "chart"
) -> tuple[str, ...]:
    names = data.get(key, default)
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{owner} field {key!r} must be a list of generator names")
    return tuple(names)


def chart_from_dict(data: Mapping[str, Any]) -> Chart:
    """The chart a JSON object describes; a malformed shape raises ``ValueError``."""
    data = _mapping(data, "a chart")
    unknown = set(data) - {"name", "evens", "odds", "fibers", "externals", "params"}
    if unknown:
        raise ValueError(f"chart has unknown fields {sorted(map(str, unknown))}")
    name = data.get("name", "C")
    if not isinstance(name, str):
        raise ValueError("chart field 'name' must be a string")
    return Chart(
        name=name,
        even_coords=_names(data, "evens"),
        odd_coords=_names(data, "odds"),
        fiber_odds=_names(data, "fibers"),
        external_odds=_names(data, "externals"),
        params=_names(data, "params", ("hbar",)),
    )


def superfunction_to_dict(f: SuperFunction) -> dict[str, Any]:
    evens = f.chart.evens
    odds = f.chart.odds
    terms = []
    for mask in sorted(f.terms):
        coeff = f.terms[mask]
        terms.append(
            {
                "monomial": [odds[b] for b in range(len(odds)) if mask >> b & 1],
                "num": _format_polynomial(coeff.num, evens),
                "den": _format_polynomial(coeff.den, evens),
            }
        )
    return {"chart": chart_to_dict(f.chart), "terms": terms}


def superfunction_from_dict(data: Mapping[str, Any]) -> SuperFunction:
    """The function a JSON object describes; a malformed shape raises ``ValueError``."""
    data = _mapping(data, "a superfunction")
    chart = _chart_field(data, "chart", "superfunction")
    terms = data.get("terms", ())
    if not isinstance(terms, (list, tuple)):
        raise ValueError("superfunction field 'terms' must be a list of term objects")
    total = SuperFunction.zero(chart)
    for item in terms:
        item = _mapping(item, "a superfunction term")
        value = parse_expression(str(_field(item, "num", "term")), chart)
        den = item.get("den", "1")
        if str(den) != "1":
            value = value / parse_expression(str(den), chart)
        for name in _names(item, "monomial", owner="term"):
            value = value * SuperFunction.generator(chart, name)
        total = total + value
    return total


def transition_to_dict(transition: Transition) -> dict[str, Any]:
    return {
        "source": chart_to_dict(transition.source),
        "target": chart_to_dict(transition.target),
        "images": {
            name: format_superfunction(image)
            for name, image in sorted(transition.images.items())
        },
    }


def _transition_charts(data: Any) -> tuple[Chart, Chart]:
    """The source and target charts of a transition object, its shape checked."""
    data = _mapping(data, "a transition")
    return _chart_field(data, "source", "transition"), _chart_field(data, "target", "transition")


def _transition_images(data: Mapping[str, Any], target: Chart) -> dict[str, SuperFunction]:
    images = _mapping(data.get("images", {}), "transition field 'images'")
    return {str(name): parse_expression(str(text), target) for name, text in images.items()}


def transition_from_dict(data: Mapping[str, Any]) -> Transition:
    """The transition a JSON object describes; a malformed shape raises ``ValueError``."""
    from .charts import Transition

    source, target = _transition_charts(data)
    return Transition(source, target, _transition_images(data, target))
