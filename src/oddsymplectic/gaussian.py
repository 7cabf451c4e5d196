"""Exact Gaussian-rational numbers: ``(a + b*I)/d`` with integers ``a``, ``b``, ``d``.

This is the coefficient field of the whole package.  A value is stored as
three Python ints in the normal form ``d > 0`` and ``gcd(a, b, d) == 1``
(zero is ``(0, 0, 1)``).  Every operation returns that form, so equal numbers
have identical fields: ``==`` compares fields, and the hash of a real value
is the hash of the equal ``int`` or ``Fraction``.  Arithmetic runs on the
ints with ``math.gcd``; the rational parts are available as ``Fraction``
through :attr:`GaussianRational.re` and :attr:`GaussianRational.im`.  Values
are immutable and hashable, and support the exact principal square root when
one exists in the field.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

__all__ = ["GaussianRational", "QLike", "to_gaussian", "fraction_sqrt"]

QLike = Union["GaussianRational", Fraction, int]

_gcd = math.gcd
_isqrt = math.isqrt
_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def fraction_sqrt(value: Fraction) -> Fraction | None:
    """Return the exact nonnegative square root of ``value`` or ``None``.

    ``None`` means ``value`` is negative or not a perfect square in **Q**.
    """
    if value < 0:
        return None
    root = to_gaussian(value).sqrt()
    return None if root is None else root.re


class GaussianRational:
    """An element ``(a + b*I)/d`` of Q(i), with exact arithmetic.

    The fields ``a``, ``b`` and ``d`` are read-only ints in normal form:
    ``d > 0`` and ``gcd(a, b, d) == 1``.  The constructor takes the real and
    imaginary parts as ints, ``Fraction`` values or anything ``Fraction``
    accepts, or one ``GaussianRational`` to copy.
    """

    __slots__ = ("a", "b", "d")

    a: int
    b: int
    d: int

    def __init__(self, re: QLike = 0, im: QLike = 0) -> None:
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("cannot combine a GaussianRational with an imaginary part")
            a, b, d = re.a, re.b, re.d
        elif type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            r = Fraction(re)
            i = Fraction(im)
            re_den = r.denominator
            im_den = i.denominator
            # Over the lcm of two reduced denominators the parts share no factor.
            d = re_den * (im_den // _gcd(re_den, im_den))
            a = r.numerator * (d // re_den)
            b = i.numerator * (d // im_den)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self) -> tuple:
        # The default protocol restores slots through __setattr__, which refuses.
        return (_make, (self.a, self.b, self.d))

    @property
    def re(self) -> Fraction:
        """The real part ``a/d``."""
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        """The imaginary part ``b/d``."""
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: QLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        return _sum(self.a, self.b, self.d, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other: QLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        return _sum(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __rsub__(self, other: QLike) -> "GaussianRational":
        other = _coerce(other)
        return _sum(other.a, other.b, other.d, -self.a, -self.b, self.d)

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: QLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        a1, b1, d1 = self.a, self.b, self.d
        a2, b2, d2 = other.a, other.b, other.d
        if not b1 and not b2:
            if d1 == 1 and d2 == 1:
                return _make(a1 * a2, 0, 1)
            # Each factor is a reduced fraction, so cross-cancelling suffices.
            g1 = _gcd(a1, d2)
            g2 = _gcd(a2, d1)
            return _make((a1 // g1) * (a2 // g2), 0, (d1 // g2) * (d2 // g1))
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        if d1 == 1 and d2 == 1:
            return _make(a, b, 1)
        return _reduce(a, b, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        return _reduce(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other: QLike) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other: QLike) -> "GaussianRational":
        return _coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    # -- square root --------------------------------------------------------

    def sqrt(self) -> "GaussianRational | None":
        """Exact principal square root in Q(i), or ``None`` if none exists.

        The principal root is the one with positive real part, or (when the
        real part vanishes) nonnegative imaginary part.  Writing the value as
        ``(A + B*I)/d^2`` with ``A = a*d`` and ``B = b*d``, a root exists in
        Q(i) exactly when ``A + B*I`` is a square in Z[i] (which is
        integrally closed), and it is that Gaussian integer's root over ``d``.
        """
        a, b, d = self.a, self.b, self.d
        if not b:
            n = abs(a) * d
            r = _isqrt(n)
            if r * r != n:
                return None
            return _reduce(r, 0, d) if a >= 0 else _reduce(0, r, d)
        big_a = a * d
        big_b = b * d
        norm = big_a * big_a + big_b * big_b
        modulus = _isqrt(norm)
        if modulus * modulus != norm:
            return None
        # With (x + y*I)^2 = A + B*I: x^2 = (A + |A + B*I|)/2, which is > 0 as B != 0.
        twice = big_a + modulus
        if twice & 1:
            return None
        half = twice >> 1
        x = _isqrt(half)
        if x * x != half:
            return None
        return _reduce(x, big_b // (2 * x), d)

    # -- comparison / hashing / display --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b:
            return hash((a, b, d))
        if d == 1:
            return hash(a)
        # Python's hash of the rational a/d (as for Fraction): |a| * d^-1
        # modulo the hash prime, infinite when d is a multiple of it.
        if d % _HASH_MODULUS:
            h = abs(a) * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
        else:
            h = _HASH_INF
        if a < 0:
            h = -h
        return -2 if h == -1 else h

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            imag = "I"
        elif im == -1:
            imag = "-I"
        else:
            imag = f"{im}*I"
        if not re:
            return imag
        return f"{re}{imag}" if imag.startswith("-") else f"{re}+{imag}"


_new = object.__new__
_set_a = GaussianRational.a.__set__  # type: ignore[attr-defined]
_set_b = GaussianRational.b.__set__  # type: ignore[attr-defined]
_set_d = GaussianRational.d.__set__  # type: ignore[attr-defined]


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value with fields already in normal form.

    Writes the slots through their descriptors, so the immutability guard
    in ``__setattr__`` stays in force for every other writer.
    """
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduce(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b*I)/d`` for ``d > 0``, brought to normal form."""
    g = _gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """The normal form of ``(a1 + b1*I)/d1 + (a2 + b2*I)/d2`` for normal inputs."""
    if d1 == d2:
        if d1 == 1:
            return _make(a1 + a2, b1 + b2, 1)
        return _reduce(a1 + a2, b1 + b2, d1)
    g = _gcd(d1, d2)
    if g == 1:
        # A prime of d1 does not divide d2, so it would have to divide both
        # a1 and b1 to cancel: the sum is already reduced.
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s = d1 // g
    t = d2 // g
    a = a1 * t + a2 * s
    b = b1 * t + b2 * s
    # Over lcm(d1, d2) = s*d2, only primes of g can cancel (as in Fraction._add).
    g = _gcd(a, b, g)
    if g == 1:
        return _make(a, b, s * d2)
    return _make(a // g, b // g, s * (d2 // g))


def _coerce(value: QLike) -> GaussianRational:
    """An int, ``Fraction`` or other ``Fraction`` input as a GaussianRational."""
    if type(value) is int:
        return _make(value, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return GaussianRational(value)


def to_gaussian(value: QLike) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    return _coerce(value)


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
