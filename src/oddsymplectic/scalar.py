"""Exact rational functions of the even variables: the coefficient ring.

A :class:`Scalar` is a reduced fraction ``num/den`` of :class:`Polynomial`
values: the gcd of numerator and denominator is one and the denominator is
lex-monic, so equal rational functions have identical representations and
``==`` is semantic equality.  Denominator one is the common case and is kept
cheap: every such scalar holds the shared ``Polynomial.one(nvars)`` as its
denominator, so sums, products and derivatives of two of them build the
numerator alone.  The identity test is only a shortcut; a denominator equal
to one but not shared (a copy, say) takes the general path to the same
result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .gaussian import GaussianRational, QLike, to_gaussian
from .poly import Polynomial

__all__ = ["Scalar", "ScalarLike"]

ScalarLike = Union["Scalar", Polynomial, GaussianRational, Fraction, int]


def _over_one(num: Polynomial, one: Polynomial) -> "Scalar":
    """``num / 1``, which is in normal form for every ``num``.

    ``one`` must be ``Polynomial.one(num.nvars)``, passed by callers that
    already hold it.
    """
    out = object.__new__(Scalar)
    out.num = num
    out.den = one
    return out


def _normalise(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale a fraction in lowest terms to denominator one or a lex-monic one."""
    if num.is_zero():
        return num, Polynomial.one(num.nvars)
    if den.is_constant():
        c = den.constant_value()
        if c != 1:
            num = num.scale(c.inverse())
        return num, Polynomial.one(num.nvars)
    _, lc = den.leading()
    if lc != 1:
        inv = lc.inverse()
        return num.scale(inv), den.scale(inv)
    return num, den


class Scalar:
    """A rational function over Q(i) in a fixed number of even variables."""

    __slots__ = ("num", "den")

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial, den: Polynomial | None = None) -> None:
        one = Polynomial.one(num.nvars)
        if den is None or den is one:
            self.num = num
            self.den = one
            return
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator over different variable sets")
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if not num.is_zero() and not den.is_constant():
            _, num, den = num.cofactors(den)
        self.num, self.den = _normalise(num, den)

    def __reduce__(self) -> tuple:
        # Rebuilding through __init__ gives a denominator-one copy the shared one.
        return (Scalar, (self.num, self.den))

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_reduced(cls, num: Polynomial, den: Polynomial) -> "Scalar":
        """Build from a fraction already in lowest terms (normalise only).

        Skips the gcd of ``__init__``; callers must guarantee that ``num`` and
        ``den`` share no nonconstant factor.
        """
        out = object.__new__(cls)
        out.num, out.den = _normalise(num, den)
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Scalar":
        return cls(Polynomial.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "Scalar":
        return cls(Polynomial.one(nvars))

    @classmethod
    def constant(cls, value: QLike, nvars: int) -> "Scalar":
        return cls(Polynomial.constant(value, nvars))

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Scalar":
        return cls(Polynomial.variable(index, nvars))

    @classmethod
    def coerce(cls, value: ScalarLike, nvars: int) -> "Scalar":
        if isinstance(value, Scalar):
            if value.nvars != nvars:
                raise ValueError("scalar over a different variable set")
            return value
        if isinstance(value, Polynomial):
            if value.nvars != nvars:
                raise ValueError("polynomial over a different variable set")
            return cls(value)
        return cls.constant(value, nvars)

    # -- views ----------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("scalar is not constant")
        return self.num.constant_value()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- field operations --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.coerce(other, self.nvars)
        a, b = self.num, self.den
        c, d = o.num, o.den
        if b is d and b is Polynomial.one(b.nvars):
            return _over_one(a + c, b)
        if b == d:
            return Scalar(a + c, b)
        g1, b1, d1 = b.cofactors(d)
        if g1.is_constant():
            return Scalar._from_reduced(a * d + c * b, b * d)
        t = a * d1 + c * b1
        if t.is_zero():
            return Scalar.zero(self.nvars)
        # Only factors of g1 can cancel from the denominator b*d1 = g1*b1*d1.
        g2, tn, g1n = t.cofactors(g1)
        if g2.is_constant():
            return Scalar._from_reduced(t, b * d1)
        return Scalar._from_reduced(tn, g1n * b1 * d1)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-Scalar.coerce(other, self.nvars))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other, self.nvars) - self

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.coerce(other, self.nvars)
        a, b = self.num, self.den
        c, d = o.num, o.den
        if b is d and b is Polynomial.one(b.nvars):
            return _over_one(a * c, b)
        if a.is_zero() or c.is_zero():
            return Scalar.zero(self.nvars)
        if not d.is_constant():
            _, a, d = a.cofactors(d)
        if not b.is_constant():
            _, c, b = c.cofactors(b)
        return Scalar._from_reduced(a * c, b * d)

    __rmul__ = __mul__

    def invert(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero scalar")
        return Scalar._from_reduced(self.den, self.num)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.coerce(other, self.nvars).invert()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.coerce(other, self.nvars) * self.invert()

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.invert() ** (-exponent)
        return Scalar._from_reduced(self.num**exponent, self.den**exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.is_polynomial() and self.num == Polynomial.constant(
                to_gaussian(other), self.nvars
            )
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Scalar({self.num!r}, {self.den!r})"

    # -- calculus -------------------------------------------------------------

    def partial(self, index: int) -> "Scalar":
        """Partial derivative (quotient rule; exact reduction)."""
        den = self.den
        if den is Polynomial.one(den.nvars):
            return _over_one(self.num.partial(index), den)
        dn = self.num.partial(index)
        dd = self.den.partial(index)
        return Scalar(dn * self.den - self.num * dd, self.den * self.den)

    def set_vars_to_zero(self, indices: Iterable[int]) -> "Scalar":
        """Evaluate the listed even variables at zero (pole raises)."""
        idx = list(indices)
        den0 = self.den.set_vars_to_zero(idx)
        if den0.is_zero():
            raise ZeroDivisionError("evaluation hits a pole of the denominator")
        return Scalar(self.num.set_vars_to_zero(idx), den0)

    def coefficients_in(self, index: int) -> dict[int, "Scalar"]:
        """Split by powers of one variable (denominator must not involve it)."""
        if self.den.degree_in(index) > 0:
            raise ValueError("denominator depends on the split variable")
        return {k: Scalar(p, self.den) for k, p in self.num.coefficients_in(index).items()}

    def sqrt(self) -> "Scalar | None":
        """Exact square root in the rational-function field, or ``None``."""
        rn = self.num.sqrt()
        if rn is None:
            return None
        rd = self.den.sqrt()
        if rd is None:
            return None
        return Scalar(rn, rd)
