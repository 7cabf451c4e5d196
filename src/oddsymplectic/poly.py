"""Sparse multivariate polynomials over the Gaussian rationals.

Terms are stored as ``{exponent_tuple: coefficient}`` with no zero
coefficients; the monomial order used for leading terms, exact division and
square roots is lexicographic on the exponent tuples (Python tuple order).
These polynomials are the numerators and denominators of the package's
scalar coefficients, so everything here is exact.
:meth:`Polynomial.cofactors` (gcd and both quotients) reduces fractions.

The gcd has three stages.  Shortcuts here settle a zero operand, a shared
monomial, a one-term operand and disjoint variables.  The other two stages,
proofs modulo a prime and Brown's dense modular gcd, live in
:mod:`oddsymplectic.brown` together with exact division over Z[i], and are
imported only when a pair first passes the shortcuts.
"""

from __future__ import annotations

from operator import add
from typing import Iterable

from .gaussian import ONE, ZERO, GaussianRational, QLike, to_gaussian

__all__ = ["Polynomial"]

_Exps = tuple[int, ...]
# The shared constant one of each variable count, built on first use.
_ONES: dict[int, "Polynomial"] = {}


class Polynomial:
    """A polynomial in ``nvars`` commuting variables over Q(i).

    Values are immutable: no operation writes to ``terms`` after
    construction, so results may share operands (``p * 1`` is ``p``) and
    :meth:`one` returns one shared instance per ``nvars``.
    """

    __slots__ = ("nvars", "terms")

    nvars: int
    terms: dict[_Exps, GaussianRational]

    def __init__(self, nvars: int, terms: dict[_Exps, GaussianRational] | None = None) -> None:
        self.nvars = nvars
        self.terms = {} if terms is None else {e: c for e, c in terms.items() if c}

    # -- constructors --------------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[_Exps, GaussianRational]) -> "Polynomial":
        """Take ownership of ``terms``, whose coefficients must all be nonzero."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._trusted(nvars, {})

    @classmethod
    def constant(cls, value: QLike, nvars: int) -> "Polynomial":
        c = to_gaussian(value)
        return cls._trusted(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        """The constant one; the same instance for every call with this ``nvars``."""
        one = _ONES.get(nvars)
        if one is None:
            one = _ONES[nvars] = cls._trusted(nvars, {(0,) * nvars: ONE})
        return one

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: ONE})

    @classmethod
    def monomial(cls, exps: _Exps, coeff: QLike, nvars: int) -> "Polynomial":
        """``coeff`` times the monomial with exponents ``exps``.

        ``exps`` must hold ``nvars`` nonnegative ints; anything else raises
        ``ValueError``.
        """
        key = tuple(exps)
        if len(key) != nvars or any(e < 0 for e in key):
            raise ValueError(f"monomial exponents {key!r} are not {nvars} nonnegative ints")
        c = to_gaussian(coeff)
        return cls._trusted(nvars, {key: c} if c else {})

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and (0,) * self.nvars in terms)

    def constant_value(self) -> GaussianRational:
        """The coefficient of the empty monomial (the value at the origin)."""
        return self.terms.get((0,) * self.nvars, ZERO)

    def leading(self) -> tuple[_Exps, GaussianRational]:
        """Leading (lex-greatest) term; raises ``ValueError`` on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def degree_in(self, index: int) -> int:
        """Degree in one variable; ``-1`` for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_present(self) -> set[int]:
        present: set[int] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present.add(i)
        return present

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live over different variable sets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return Polynomial._trusted(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        left, right = self.terms, other.terms
        if not left or not right:
            return Polynomial._trusted(self.nvars, {})
        if len(right) == 1:
            return self._times_term(right)
        if len(left) == 1:
            return other._times_term(left)
        terms: dict[_Exps, GaussianRational] = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                exps = tuple(map(add, e1, e2))
                prod = c1 * c2
                acc = terms.get(exps)
                if acc is None:
                    terms[exps] = prod
                else:
                    acc = acc + prod
                    if acc:
                        terms[exps] = acc
                    else:
                        del terms[exps]
        return Polynomial._trusted(self.nvars, terms)

    def _times_term(self, term: dict[_Exps, GaussianRational]) -> "Polynomial":
        """Product with a one-term polynomial, given by its ``terms``.

        A constant scales the coefficients (and ``1`` returns ``self``); a
        monomial shifts every key, which keeps distinct keys distinct.
        """
        ((shift, c),) = term.items()
        if not any(shift):
            return self if c == ONE else self.scale(c)
        if c == ONE:
            terms = {tuple(map(add, e, shift)): k for e, k in self.terms.items()}
        else:
            terms = {tuple(map(add, e, shift)): k * c for e, k in self.terms.items()}
        return Polynomial._trusted(self.nvars, terms)

    def scale(self, factor: QLike) -> "Polynomial":
        c = to_gaussian(factor)
        if not c:
            return Polynomial._trusted(self.nvars, {})
        return Polynomial._trusted(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.nvars)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.terms!r})"

    # -- calculus ---------------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        # Lowering one exponent is injective on the terms that have it, and
        # a nonzero coefficient times a positive exponent stays nonzero.
        return Polynomial._trusted(
            self.nvars,
            {
                exps[:index] + (e - 1,) + exps[index + 1 :]: coeff if e == 1 else coeff * e
                for exps, coeff in self.terms.items()
                if (e := exps[index])
            },
        )

    def set_vars_to_zero(self, indices: Iterable[int]) -> "Polynomial":
        """Evaluate the listed variables at zero."""
        idx = set(indices)
        terms = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return Polynomial(self.nvars, terms)

    def coefficients_in(self, index: int) -> dict[int, "Polynomial"]:
        """Split by the power of one variable: ``{k: coefficient of v^k}``.

        The returned polynomials have the chosen variable's exponent zeroed.
        """
        split: dict[int, dict[_Exps, GaussianRational]] = {}
        for exps, coeff in self.terms.items():
            k = exps[index]
            reduced = exps[:index] + (0,) + exps[index + 1 :]
            split.setdefault(k, {})[reduced] = coeff
        return {k: Polynomial(self.nvars, t) for k, t in split.items()}

    # -- division, gcd, square root ----------------------------------------------

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Exact quotient ``self / divisor`` or ``None`` if not divisible.

        Clears denominators and divides by the divisor's primitive part over
        Z[i], where the quotient stays by Gauss's lemma; then scales it back
        (:func:`oddsymplectic.brown.divide_exact`).
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        from .brown import divide_exact

        return divide_exact(self, divisor)

    def cofactors(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial", "Polynomial"]:
        """``(g, self / g, other / g)`` with ``g`` the monic gcd over Q(i).

        When ``g`` is constant the operands come back unchanged.  After the
        shortcuts, :func:`oddsymplectic.brown.cofactors` finds ``g`` by the
        proofs modulo a prime or by Brown's modular gcd.
        """
        self._check(other)
        a, b, nvars = self, other, self.nvars
        if not a.terms or not b.terms:
            g = (a + b).monic()
            if g.is_constant():
                return g, a, b
            lc = Polynomial.constant((a + b).leading()[1], nvars)
            return (g, a, lc) if not a.terms else (g, lc, b)
        mins = tuple(min(x, y) for x, y in zip(a._monomial_content(), b._monomial_content()))
        if any(mins):
            g, a_g, b_g = a._shift_down(mins).cofactors(b._shift_down(mins))
            return g * Polynomial.monomial(mins, 1, nvars), a_g, b_g
        vars_a, vars_b = a.variables_present(), b.variables_present()
        if len(a.terms) == 1 or len(b.terms) == 1 or not vars_a & vars_b:
            return Polynomial.one(nvars), a, b
        from .brown import cofactors

        return cofactors(a, b, vars_a, vars_b)

    def monic(self) -> "Polynomial":
        """Scale so the lex-leading coefficient is one (zero stays zero)."""
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == 1:
            return self
        inv = lc.inverse()
        return Polynomial(self.nvars, {e: c * inv for e, c in self.terms.items()})

    def _monomial_content(self) -> _Exps:
        """Elementwise minimum of the exponent tuples (the shared monomial)."""
        mins: list[int] | None = None
        for exps in self.terms:
            if mins is None:
                mins = list(exps)
            else:
                for i, e in enumerate(exps):
                    if e < mins[i]:
                        mins[i] = e
            if mins is not None and not any(mins):
                break
        assert mins is not None
        return tuple(mins)

    def _shift_down(self, mins: _Exps) -> "Polynomial":
        """Divide by the monomial with exponents ``mins`` (must be a factor)."""
        return Polynomial(
            self.nvars,
            {tuple(e - m for e, m in zip(exps, mins)): c for exps, c in self.terms.items()},
        )

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor over Q(i): shortcuts, then the proofs
        modulo a prime, then Brown's modular gcd (see :meth:`cofactors`)."""
        return a.cofactors(b)[0]

    def sqrt(self) -> "Polynomial | None":
        """Exact square root of a perfect square, or ``None``.

        Reconstructs the root term by term in lex order: if ``p = r^2`` with
        ``r = t0 + t1 + ...`` (lex-decreasing), then ``lt(p) = t0^2`` and each
        later term is ``lt(remainder) / (2 t0)``.
        """
        if self.is_zero():
            return Polynomial(self.nvars)
        lt, lc = self.leading()
        if any(e % 2 for e in lt):
            return None
        root_lc = lc.sqrt()
        if root_lc is None:
            return None
        half_exps = tuple(e // 2 for e in lt)
        root = Polynomial.monomial(half_exps, root_lc, self.nvars)
        remainder = self - root * root
        double_lc = root_lc * 2
        previous: _Exps | None = None
        while not remainder.is_zero():
            lt_r, lc_r = remainder.leading()
            diff = tuple(a - b for a, b in zip(lt_r, half_exps))
            if any(d < 0 for d in diff):
                return None
            if previous is not None and diff >= previous:
                return None
            previous = diff
            term = Polynomial.monomial(diff, lc_r / double_lc, self.nvars)
            remainder = remainder - root * term * Polynomial.constant(2, self.nvars) - term * term
            root = root + term
        return root
