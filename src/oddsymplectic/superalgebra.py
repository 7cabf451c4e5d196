"""Charts and supercommutative function algebras.

A :class:`Chart` fixes a finite list of even generators (geometric
coordinates plus formal parameters such as ``hbar``) and a finite list of odd
generators.  Odd generators come in three kinds — coordinate (``th``), fiber
(``xi``), dual/external constants (``eps``) — and are globally ordered by
kind and then by index; monomials in them are stored as bitmasks over that
order, always reduced to the ascending-canonical form with Koszul signs.

A :class:`SuperFunction` is a finite sum ``sum_m c_m(x) * m`` of odd
monomials ``m`` with :class:`~oddsymplectic.scalar.Scalar` coefficients
(exact rational functions of the even generators).  All arithmetic is exact;
equality of values is equality of representations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import (
    ChartMismatch,
    NoExactSquareRoot,
    NonInvertibleBody,
    ParityViolation,
    UnknownGenerator,
)
from .gaussian import GaussianRational, to_gaussian
from .poly import Polynomial
from .scalar import Scalar, ScalarLike

__all__ = [
    "OddKind",
    "Chart",
    "SuperFunction",
    "Like",
    "bits_of",
    "koszul_sign",
]

Like = Union["SuperFunction", ScalarLike]


class OddKind(enum.IntEnum):
    """Kinds of odd generators, in their canonical ordering."""

    COORDINATE = 0
    FIBER = 1
    EXTERNAL = 2


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def koszul_sign(left_mask: int, right_mask: int) -> int:
    """Sign (+1/-1) for merging two ascending odd monomials into one.

    Counts inversions: pairs ``a`` in ``left_mask``, ``b`` in ``right_mask``
    with ``a > b``; each costs a transposition of odd generators.
    """
    total = 0
    m = right_mask
    while m:
        low = m & -m
        total += (left_mask >> low.bit_length()).bit_count()
        m ^= low
    return -1 if total & 1 else 1


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with even and odd generators.

    ``even_coords`` are the geometric even coordinates (they participate in
    differentials, Jacobians and pairings); ``params`` are formal even
    parameters that ride along unchanged (``hbar`` by default).  The three
    odd blocks are ordered coordinate < fiber < external.
    """

    name: str
    even_coords: tuple[str, ...]
    odd_coords: tuple[str, ...] = ()
    fiber_odds: tuple[str, ...] = ()
    external_odds: tuple[str, ...] = ()
    params: tuple[str, ...] = ("hbar",)

    evens: tuple[str, ...] = field(init=False, compare=False, repr=False)
    odds: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        evens = tuple(self.even_coords) + tuple(self.params)
        odds = tuple(self.odd_coords) + tuple(self.fiber_odds) + tuple(self.external_odds)
        names = evens + odds
        if len(set(names)) != len(names):
            raise ValueError(f"chart {self.name!r} has repeated generator names")
        for generator in names:
            if not generator.isidentifier():
                raise ValueError(f"generator name {generator!r} is not an identifier")
            if generator == "I":
                raise ValueError("generator name 'I' is reserved for the imaginary unit")
        object.__setattr__(self, "evens", evens)
        object.__setattr__(self, "odds", odds)
        object.__setattr__(self, "_even_index", {n: i for i, n in enumerate(evens)})
        object.__setattr__(self, "_odd_index", {n: i for i, n in enumerate(odds)})

    # -- construction ----------------------------------------------------------

    @classmethod
    def darboux(
        cls,
        n: int,
        *,
        name: str = "C",
        externals: Iterable[str] = (),
        params: Iterable[str] = ("hbar",),
        even_prefix: str = "x",
        odd_prefix: str = "th",
    ) -> "Chart":
        """The standard chart with pairs ``x^i, th_i`` for ``i = 1..n``."""
        return cls(
            name=name,
            even_coords=tuple(f"{even_prefix}{i}" for i in range(1, n + 1)),
            odd_coords=tuple(f"{odd_prefix}{i}" for i in range(1, n + 1)),
            external_odds=tuple(externals),
            params=tuple(params),
        )

    @classmethod
    def forms(
        cls,
        n: int,
        *,
        name: str = "F",
        externals: Iterable[str] = (),
        params: Iterable[str] = ("hbar",),
    ) -> "Chart":
        """The chart carrying differential forms: ``x^i`` and fibers ``xi^i``."""
        return cls(
            name=name,
            even_coords=tuple(f"x{i}" for i in range(1, n + 1)),
            fiber_odds=tuple(f"xi{i}" for i in range(1, n + 1)),
            external_odds=tuple(externals),
            params=tuple(params),
        )

    def with_externals(self, *names: str) -> "Chart":
        """A copy of this chart with extra external odd constants appended."""
        missing = tuple(n for n in names if n not in self.external_odds)
        return replace(self, external_odds=self.external_odds + missing)

    def with_params(self, *names: str) -> "Chart":
        """A copy of this chart with extra even parameters appended."""
        missing = tuple(n for n in names if n not in self.params)
        return replace(self, params=self.params + missing)

    # -- lookups -----------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.evens)

    @property
    def nodds(self) -> int:
        return len(self.odds)

    def even_index(self, name: str) -> int:
        try:
            return self._even_index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownGenerator(f"{name!r} is not an even generator of chart {self.name!r}")

    def odd_index(self, name: str) -> int:
        try:
            return self._odd_index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownGenerator(f"{name!r} is not an odd generator of chart {self.name!r}")

    def has_generator(self, name: str) -> bool:
        return name in self._even_index or name in self._odd_index  # type: ignore[attr-defined]

    def parity_of(self, name: str) -> int:
        """0 for an even generator, 1 for an odd one; unknown names raise."""
        if name in self._even_index:  # type: ignore[attr-defined]
            return 0
        if name in self._odd_index:  # type: ignore[attr-defined]
            return 1
        raise UnknownGenerator(f"{name!r} is not a generator of chart {self.name!r}")

    def kind_of_odd(self, bit: int) -> OddKind:
        if bit < len(self.odd_coords):
            return OddKind.COORDINATE
        if bit < len(self.odd_coords) + len(self.fiber_odds):
            return OddKind.FIBER
        return OddKind.EXTERNAL

    def mask_of_kind(self, kind: OddKind) -> int:
        start = {
            OddKind.COORDINATE: 0,
            OddKind.FIBER: len(self.odd_coords),
            OddKind.EXTERNAL: len(self.odd_coords) + len(self.fiber_odds),
        }[kind]
        length = {
            OddKind.COORDINATE: len(self.odd_coords),
            OddKind.FIBER: len(self.fiber_odds),
            OddKind.EXTERNAL: len(self.external_odds),
        }[kind]
        return ((1 << length) - 1) << start


class SuperFunction:
    """An exact function of a chart's generators."""

    __slots__ = ("chart", "terms")

    chart: Chart
    terms: dict[int, Scalar]

    def __init__(self, chart: Chart, terms: Mapping[int, Scalar] | None = None) -> None:
        self.chart = chart
        self.terms = (
            {} if terms is None else {m: c for m, c in terms.items() if not c.is_zero()}
        )

    # -- constructors --------------------------------------------------------------

    @classmethod
    def _trusted(cls, chart: Chart, terms: dict[int, Scalar]) -> "SuperFunction":
        """Take ownership of ``terms``, whose coefficients must all be nonzero."""
        out = object.__new__(cls)
        out.chart = chart
        out.terms = terms
        return out

    @classmethod
    def zero(cls, chart: Chart) -> "SuperFunction":
        return cls(chart)

    @classmethod
    def from_scalar(cls, chart: Chart, value: ScalarLike) -> "SuperFunction":
        scalar = Scalar.coerce(value, chart.nvars)
        return cls(chart, {0: scalar})

    @classmethod
    def one(cls, chart: Chart) -> "SuperFunction":
        return cls.from_scalar(chart, 1)

    @classmethod
    def generator(cls, chart: Chart, name: str) -> "SuperFunction":
        """The generator with the given name, as a function."""
        if name in chart._even_index:  # type: ignore[attr-defined]
            return cls.from_scalar(chart, Scalar.variable(chart.even_index(name), chart.nvars))
        bit = chart.odd_index(name)
        return cls(chart, {1 << bit: Scalar.one(chart.nvars)})

    def _coerce(self, value: Like) -> "SuperFunction":
        if isinstance(value, SuperFunction):
            if value.chart is not self.chart and value.chart != self.chart:
                raise ChartMismatch(
                    f"operands live on charts {self.chart.name!r} and {value.chart.name!r}"
                )
            return value
        return SuperFunction.from_scalar(self.chart, value)

    # -- views ------------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> Scalar:
        """The coefficient of the empty odd monomial."""
        return self.terms.get(0, Scalar.zero(self.chart.nvars))

    def coefficient(self, mask: int) -> Scalar:
        return self.terms.get(mask, Scalar.zero(self.chart.nvars))

    def parity(self) -> int | None:
        """0 (even), 1 (odd), or ``None`` for mixed; zero counts as even."""
        if not self.terms:
            return 0
        parities = {mask.bit_count() & 1 for mask in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def is_even(self) -> bool:
        p = self.parity()
        return p == 0 or self.is_zero()

    def is_odd(self) -> bool:
        return self.is_zero() or self.parity() == 1

    def even_part(self) -> "SuperFunction":
        return SuperFunction(
            self.chart, {m: c for m, c in self.terms.items() if not m.bit_count() & 1}
        )

    def odd_part(self) -> "SuperFunction":
        return SuperFunction(
            self.chart, {m: c for m, c in self.terms.items() if m.bit_count() & 1}
        )

    def parity_or_raise(self, what: str = "operand") -> int:
        p = self.parity()
        if p is None:
            raise ParityViolation(f"{what} must be parity-homogeneous")
        return p

    def odd_degree(self, kind: OddKind | None = None) -> int:
        """Largest number of odd factors (of one kind if given) in any term."""
        if not self.terms:
            return 0
        if kind is None:
            return max(m.bit_count() for m in self.terms)
        kind_mask = self.chart.mask_of_kind(kind)
        return max((m & kind_mask).bit_count() for m in self.terms)

    def depends_on_odd(self, bit: int) -> bool:
        return any(m >> bit & 1 for m in self.terms)

    # -- ring operations -----------------------------------------------------------------

    def __add__(self, other: Like) -> "SuperFunction":
        o = self._coerce(other)
        terms = dict(self.terms)
        for mask, coeff in o.terms.items():
            acc = terms.get(mask)
            if acc is None:
                terms[mask] = coeff
            else:
                acc = acc + coeff
                if acc.is_zero():
                    del terms[mask]
                else:
                    terms[mask] = acc
        return SuperFunction._trusted(self.chart, terms)

    __radd__ = __add__

    def __neg__(self) -> "SuperFunction":
        return SuperFunction._trusted(self.chart, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Like) -> "SuperFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Like) -> "SuperFunction":
        return self._coerce(other) - self

    def scale(self, factor: ScalarLike) -> "SuperFunction":
        if type(factor) is int:
            if factor == 1:
                return self
            if factor == -1:
                return -self
        scalar = Scalar.coerce(factor, self.chart.nvars)
        if scalar.is_zero():
            return SuperFunction(self.chart)
        return SuperFunction._trusted(
            self.chart, {m: c * scalar for m, c in self.terms.items()}
        )

    def __mul__(self, other: Like) -> "SuperFunction":
        if not isinstance(other, SuperFunction):
            return self.scale(other)
        o = self._coerce(other)
        terms: dict[int, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                if m1 & m2:
                    continue
                sign = koszul_sign(m1, m2)
                prod = c1 * c2
                if sign < 0:
                    prod = -prod
                mask = m1 | m2
                acc = terms.get(mask)
                if acc is None:
                    terms[mask] = prod
                else:
                    acc = acc + prod
                    if acc.is_zero():
                        del terms[mask]
                    else:
                        terms[mask] = acc
        return SuperFunction._trusted(self.chart, terms)

    def __rmul__(self, other: Like) -> "SuperFunction":
        if isinstance(other, SuperFunction):
            return self._coerce(other) * self
        return self.scale(other)

    def __pow__(self, exponent: int) -> "SuperFunction":
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = SuperFunction.one(self.chart)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            if exponent > 1:
                base = base * base
            exponent >>= 1
        return result

    def __truediv__(self, other: Like) -> "SuperFunction":
        if isinstance(other, SuperFunction):
            return self * other.invert()
        scalar = Scalar.coerce(other, self.chart.nvars)
        return self.scale(scalar.invert())

    def __rtruediv__(self, other: Like) -> "SuperFunction":
        return self._coerce(other) * self.invert()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, Scalar, Polynomial)):
            try:
                other = SuperFunction.from_scalar(self.chart, other)
            except (ValueError, TypeError):
                return NotImplemented
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.chart.name, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        try:
            return f"<SuperFunction on {self.chart.name!r}: {self}>"
        except Exception:
            return f"<SuperFunction on {self.chart.name!r}: {self.terms!r}>"

    def __str__(self) -> str:
        from .expressions import format_superfunction

        return format_superfunction(self)

    # -- calculus ----------------------------------------------------------------------------

    def partial_even(self, name: str) -> "SuperFunction":
        """Partial derivative along an even generator."""
        index = self.chart.even_index(name)
        return SuperFunction(
            self.chart, {m: c.partial(index) for m, c in self.terms.items()}
        )

    def partial_odd(self, name: str) -> "SuperFunction":
        """Left partial derivative along an odd generator.

        On an ascending monomial the generator is carried to the front,
        picking up one sign per odd factor it passes, then removed.
        """
        bit = self.chart.odd_index(name)
        probe = 1 << bit
        below = probe - 1
        terms: dict[int, Scalar] = {}
        for mask, coeff in self.terms.items():
            if not mask & probe:
                continue
            sign = (mask & below).bit_count() & 1
            terms[mask ^ probe] = -coeff if sign else coeff
        return SuperFunction._trusted(self.chart, terms)

    def derivative(self, name: str) -> "SuperFunction":
        """Derivative along any generator (left derivative when odd)."""
        if name in self.chart._even_index:  # type: ignore[attr-defined]
            return self.partial_even(name)
        return self.partial_odd(name)

    # -- multiplicative structure beyond the ring ------------------------------------------------

    def invert(self) -> "SuperFunction":
        """Multiplicative inverse; requires an invertible body.

        Splits ``f = b + n`` with ``b`` the body and ``n`` nilpotent, and sums
        the finite geometric series ``f^{-1} = b^{-1} sum_k (-n b^{-1})^k``.
        """
        body = self.terms.get(0)
        if body is None or body.is_zero():
            raise NonInvertibleBody("cannot invert: the theta-free part vanishes")
        body_inv = body.invert()
        nilpotent = SuperFunction(
            self.chart, {m: c for m, c in self.terms.items() if m}
        )
        if nilpotent.is_zero():
            return SuperFunction.from_scalar(self.chart, body_inv)
        series = _nilpotent_series(nilpotent.scale(body_inv), lambda k: -1 if k & 1 else 1)
        return series.scale(body_inv)

    def sqrt_even(self) -> "SuperFunction":
        """Exact square root of an even element with square body.

        Writes ``f = b (1 + u)`` with nilpotent ``u`` and applies the finite
        binomial series for ``sqrt(1+u)``; raises
        :class:`~oddsymplectic.errors.NoExactSquareRoot` when the body is not
        an exact square (or vanishes) and
        :class:`~oddsymplectic.errors.ParityViolation` when ``f`` is not even.

        Of the two roots, the one whose body is positive at the origin is
        returned whenever that value is nonzero and real; this makes roots of
        Berezinians compose consistently across origin-preserving coordinate
        changes.  Otherwise the root's leading coefficient is the principal
        square root of the leading coefficient of the body.
        """
        if self.parity() != 0 and not self.is_zero():
            raise ParityViolation("square root requires an even element")
        if self.is_zero():
            return self
        body = self.terms.get(0)
        if body is None or body.is_zero():
            raise NoExactSquareRoot("square root requires an invertible body")
        root_body = body.sqrt()
        if root_body is None:
            raise NoExactSquareRoot("the theta-free part is not an exact square")
        origin_num = root_body.num.constant_value()
        origin_den = root_body.den.constant_value()
        if origin_num and origin_den:
            origin = origin_num / origin_den
            if not origin.b and origin.a < 0:
                root_body = -root_body
        u = SuperFunction(self.chart, {m: c for m, c in self.terms.items() if m}).scale(
            body.invert()
        )
        # The coefficients of sqrt(1 + u): binom(1/2, k) = C(2k, k) / ((-4)^k (1 - 2k)).
        series = _nilpotent_series(
            u, lambda k: Fraction(math.comb(2 * k, k), (-4) ** k * (1 - 2 * k))
        )
        return series.scale(root_body)

    # -- substitution and integration ----------------------------------------------------------------

    def substitute(
        self, images: Mapping[str, "SuperFunction | ScalarLike"], target: Chart
    ) -> "SuperFunction":
        """Evaluate under ``generator -> image`` into the target chart.

        Generators without an explicit image map to the target generator of
        the same name.  Even generators need even images; odd generators need
        odd images.  Rational coefficients require the denominator's image to
        stay invertible.
        """
        chart = self.chart
        even_imgs: list[SuperFunction | None] = []
        for name in chart.evens:
            img = images.get(name)
            if img is None:
                # Default to the same-named target generator, resolved lazily
                # so unused generators need not exist in the target chart.
                even_imgs.append(
                    SuperFunction.generator(target, name)
                    if target.has_generator(name)
                    else None
                )
                continue
            if not isinstance(img, SuperFunction):
                img = SuperFunction.from_scalar(target, img)
            elif img.chart != target:
                raise ChartMismatch(f"image of {name!r} lives on chart {img.chart.name!r}")
            if not img.is_even():
                raise ParityViolation(f"image of even generator {name!r} must be even")
            even_imgs.append(img)
        odd_imgs: list[SuperFunction | None] = []
        for name in chart.odds:
            img = images.get(name)
            if img is None:
                odd_imgs.append(
                    SuperFunction.generator(target, name)
                    if target.has_generator(name)
                    else None
                )
                continue
            if not isinstance(img, SuperFunction):
                raise ParityViolation(f"image of odd generator {name!r} must be odd")
            if img.chart != target:
                raise ChartMismatch(f"image of {name!r} lives on chart {img.chart.name!r}")
            if not img.is_odd():
                raise ParityViolation(f"image of odd generator {name!r} must be odd")
            odd_imgs.append(img)

        power_cache: list[dict[int, SuperFunction]] = [dict() for _ in chart.evens]

        def even_power(index: int, exponent: int) -> SuperFunction:
            base = even_imgs[index]
            if base is None:
                raise UnknownGenerator(
                    f"no image for even generator {chart.evens[index]!r} in chart "
                    f"{target.name!r}"
                )
            cache = power_cache[index]
            hit = cache.get(exponent)
            if hit is None:
                hit = base**exponent
                cache[exponent] = hit
            return hit

        def eval_poly(poly: Polynomial) -> SuperFunction:
            acc = SuperFunction.zero(target)
            for exps, coeff in poly.terms.items():
                term = SuperFunction.from_scalar(target, coeff)
                for index, exponent in enumerate(exps):
                    if exponent:
                        term = term * even_power(index, exponent)
                acc = acc + term
            return acc

        result = SuperFunction.zero(target)
        den_cache: dict[Polynomial, SuperFunction] = {}
        for mask, scalar in self.terms.items():
            value = eval_poly(scalar.num)
            if not scalar.is_polynomial():
                inv = den_cache.get(scalar.den)
                if inv is None:
                    inv = eval_poly(scalar.den).invert()
                    den_cache[scalar.den] = inv
                value = value * inv
            for bit in bits_of(mask):
                img = odd_imgs[bit]
                if img is None:
                    raise UnknownGenerator(
                        f"no image for odd generator {chart.odds[bit]!r} in chart "
                        f"{target.name!r}"
                    )
                value = value * img
            result = result + value
        return result

    def berezin_integral(self, names: Iterable[str]) -> "SuperFunction":
        """Berezin integral over a set of odd generators (left extraction).

        A monomial contributes iff it contains every integration generator;
        the sign reorders it as (integration block, ascending) * (rest).
        """
        over = 0
        for name in names:
            over |= 1 << self.chart.odd_index(name)
        terms: dict[int, Scalar] = {}
        for mask, coeff in self.terms.items():
            if mask & over != over:
                continue
            rest = mask & ~over
            total = 0
            for bit in bits_of(over):
                total += (rest & ((1 << bit) - 1)).bit_count()
            acc = terms.get(rest)
            signed = -coeff if total & 1 else coeff
            if acc is None:
                terms[rest] = signed
            else:
                acc = acc + signed
                if not acc.is_zero():
                    terms[rest] = acc
                else:
                    del terms[rest]
        return SuperFunction(self.chart, terms)

    # -- structural helpers -------------------------------------------------------------------------

    def set_evens_to_zero(self, names: Iterable[str]) -> "SuperFunction":
        indices = [self.chart.even_index(n) for n in names]
        return SuperFunction(
            self.chart,
            {m: c.set_vars_to_zero(indices) for m, c in self.terms.items()},
        )

    def drop_odd_bits(self, mask: int) -> "SuperFunction":
        """Keep only terms containing none of the given odd generators."""
        return SuperFunction(
            self.chart, {m: c for m, c in self.terms.items() if not m & mask}
        )

    def coefficients_in_param(self, name: str) -> dict[int, "SuperFunction"]:
        """Split by powers of an even parameter: ``{k: coefficient}``."""
        index = self.chart.even_index(name)
        split: dict[int, dict[int, Scalar]] = {}
        for mask, coeff in self.terms.items():
            for k, part in coeff.coefficients_in(index).items():
                split.setdefault(k, {})[mask] = part
        return {k: SuperFunction(self.chart, t) for k, t in split.items()}

    def retarget(self, target: Chart) -> "SuperFunction":
        """Transport to another chart by generator name.

        Purely structural: every generator this function actually uses must
        exist with the same parity in the target.
        """
        return self.substitute({}, target)


def _nilpotent_series(u: SuperFunction, c: Callable[[int], ScalarLike]) -> SuperFunction:
    """The finite sum ``1 + sum_{k >= 1} c(k) u^k`` for ``u`` without a body.

    Every term of ``u^k`` has at least ``k*d`` odd factors, ``d`` the lowest
    odd degree in ``u``, so the sum stops as soon as ``k*d`` exceeds the
    chart's odd generators, or earlier at the first zero power.
    """
    total = SuperFunction.one(u.chart)
    if not u.terms:
        return total
    d = min(m.bit_count() for m in u.terms)
    power = u
    k = 1
    while True:
        total = total + power.scale(c(k))
        k += 1
        if k * d > u.chart.nodds:
            return total
        power = power * u
        if power.is_zero():
            return total
