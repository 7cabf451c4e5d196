"""Sparse multivariate polynomials over the Gaussian rationals.

Terms are stored as ``{exponent_tuple: coefficient}`` with no zero
coefficients; the monomial order used for leading terms, exact division and
square roots is lexicographic on the exponent tuples (Python tuple order).
These polynomials are the numerators and denominators of the package's
scalar coefficients, so everything here is exact.
Exact division and the gcd share one kernel over Z[i]: :func:`_cleared`
clears denominators and :func:`_divide_exact` is the one long division.
:meth:`Polynomial.cofactors` (gcd and both quotients) reduces fractions.

The gcd has three stages.  Shortcuts settle a shared monomial, a one-term
operand and disjoint variables.  Two proofs modulo the prime
``p = 1 000 000 009 ≡ 1 (mod 4)``, where ``I`` has an image, settle coprime
pairs and pairs where one operand divides the other.  Any other pair goes to
Brown's dense modular gcd in :mod:`oddsymplectic.brown` ("On Euclid's
algorithm and the computation of polynomial greatest common divisors",
J. ACM 18, 1971), combined over primes by the Chinese remainder theorem and
certified by one exact division of each operand over Z[i], whose quotients
are the cofactors.
"""

from __future__ import annotations

import math
from operator import add
from typing import Iterable

from .gaussian import ONE, ZERO, GaussianRational, QLike, to_gaussian

__all__ = ["Polynomial"]

_Exps = tuple[int, ...]
_GaussInt = tuple[int, int]
_GaussTerms = dict[_Exps, _GaussInt]
_UNIT: _GaussInt = (1, 0)

# The first prime of the modular gcd, ≡ 1 (mod 4), and a square root of -1
# modulo it, the image of ``I``.
_P = 1_000_000_009
_I_MOD_P = 569_522_298


def _normal(re: int, im: int) -> _GaussInt:
    """The associate of ``re + im*I`` with ``re > 0`` and ``im >= 0`` (zero stays)."""
    if not re and not im:
        return (0, 0)
    while re <= 0 or im < 0:
        re, im = -im, re
    return (re, im)


def _gaussian_gcd(a: _GaussInt, b: _GaussInt) -> _GaussInt:
    """Normalised gcd in Z[i] by Euclid with the nearest-integer quotient."""
    ar, ai = a
    br, bi = b
    if not ai and not bi:
        return (math.gcd(ar, br), 0)
    while br or bi:
        norm = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + norm) // (2 * norm)
        qi = (2 * (ai * br - ar * bi) + norm) // (2 * norm)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return _normal(ar, ai)


def _gaussian_quotient(a: _GaussInt, b: _GaussInt) -> _GaussInt | None:
    """``a / b`` in Z[i], or ``None`` when ``b`` does not divide ``a``."""
    ar, ai = a
    br, bi = b
    if not bi:
        qr, rr = divmod(ar, br)
        qi, ri = divmod(ai, br)
    else:
        norm = br * br + bi * bi
        qr, rr = divmod(ar * br + ai * bi, norm)
        qi, ri = divmod(ai * br - ar * bi, norm)
    if rr or ri:
        return None
    return (qr, qi)


def _content(terms: _GaussTerms) -> _GaussInt:
    """Normalised gcd of the Gaussian-integer coefficients (zero for ``{}``)."""
    c: _GaussInt = (0, 0)
    for v in terms.values():
        c = _gaussian_gcd(c, v)
        if c == _UNIT:
            break
    return c


def _primitive(terms: _GaussTerms, content: _GaussInt) -> _GaussTerms:
    """Divide every coefficient by ``content``, which must divide them all."""
    if content == _UNIT:
        return terms
    return {e: _gaussian_quotient(v, content) for e, v in terms.items()}


def _divide_exact(num: _GaussTerms, div: _GaussTerms) -> _GaussTerms | None:
    """Exact quotient of Gaussian-integer term dicts in lex order, or ``None``."""
    if not num:
        return {}
    lt_d = max(div)
    lc_d = div[lt_d]
    tail = [(e, v) for e, v in div.items() if e != lt_d]
    quotient: _GaussTerms = {}
    rem = dict(num)
    while rem:
        lt_r = max(rem)
        diff = tuple(a - b for a, b in zip(lt_r, lt_d))
        if any(d < 0 for d in diff):
            return None
        q = _gaussian_quotient(rem.pop(lt_r), lc_d)
        if q is None:
            return None
        quotient[diff] = q
        qr, qi = q
        for exps, (vr, vi) in tail:
            shifted = tuple(a + b for a, b in zip(exps, diff))
            acc = rem.get(shifted, (0, 0))
            re = acc[0] - vr * qr + vi * qi
            im = acc[1] - vr * qi - vi * qr
            if re or im:
                rem[shifted] = (re, im)
            else:
                rem.pop(shifted, None)
    return quotient


def _cleared(terms: dict[_Exps, GaussianRational]) -> tuple[_GaussTerms, int]:
    """Gaussian-integer terms ``lcm * terms`` and ``lcm``, the coefficients' shared denominator."""
    lcm = 1
    for coeff in terms.values():
        den = coeff.d
        if den != 1:
            lcm = lcm * (den // math.gcd(lcm, den))
    return {e: (c.a * (lcm // c.d), c.b * (lcm // c.d)) for e, c in terms.items()}, lcm


def _residues(nvars: int) -> list[int]:
    """The fixed nonzero points of Z/p at which the modular proofs put the variables."""
    return [pow(3, 64 + j, _P) for j in range(nvars)]


def _univariate_images(
    terms: dict[_Exps, GaussianRational], indices: list[int], points: list[int]
) -> dict[int, list[int]] | None:
    """For each listed variable, the image of ``terms`` in Z/p[that variable].

    ``I`` goes to :data:`_I_MOD_P` and every other variable to its point.
    Each image is a dense coefficient list, lowest degree first, one entry
    per degree up to the true degree, so its last entry is the image of the
    leading coefficient.  ``None`` when ``p`` divides a denominator.
    """
    images: dict[int, dict[int, int]] = {index: {} for index in indices}
    for exps, c in terms.items():
        den = c.d
        if not den % _P:
            return None
        value = (c.a + c.b * _I_MOD_P) % _P
        if den != 1:
            value = value * pow(den, -1, _P) % _P
        for index, image in images.items():
            v = value
            for j, e in enumerate(exps):
                if e and j != index:
                    v = v * pow(points[j], e, _P) % _P
            k = exps[index]
            image[k] = (image.get(k, 0) + v) % _P
    return {
        index: [image.get(k, 0) for k in range(max(image) + 1)] for index, image in images.items()
    }


def _gcd_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd in Z/p[x] of dense lists, lowest degree first, with nonzero leads
    (``f`` may be empty): the proofs' degree test, and the base case of Brown's gcd."""
    f = list(f)
    while g:
        dg = len(g) - 1
        if not dg:
            return [1]
        inv = pow(g[-1], -1, p)
        while len(f) > dg:
            q = f.pop() * inv % p
            if q:
                shift = len(f) - dg
                for k in range(dg):
                    f[shift + k] = (f[shift + k] - q * g[k]) % p
        while f and not f[-1]:
            f.pop()
        f, g = list(g), f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _polynomial(nvars: int, terms: _GaussTerms, factor: GaussianRational) -> "Polynomial":
    """``factor`` times the polynomial with the nonzero Gaussian-integer ``terms``."""
    out = {e: GaussianRational(re, im) for e, (re, im) in terms.items()}
    if factor != 1:
        out = {e: c * factor for e, c in out.items()}
    return Polynomial._trusted(nvars, out)


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
                exps[:index] + (exps[index] - 1,) + exps[index + 1 :]: coeff * exps[index]
                for exps, coeff in self.terms.items()
                if exps[index]
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
        Z[i], where the quotient stays by Gauss's lemma; then scales it back.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num, num_lcm = _cleared(self.terms)
        div, div_lcm = _cleared(divisor.terms)
        content = _content(div)
        quotient = _divide_exact(num, _primitive(div, content))
        if quotient is None:
            return None
        cr, ci = content
        scale = GaussianRational(div_lcm) / GaussianRational(num_lcm * cr, num_lcm * ci)
        return _polynomial(self.nvars, quotient, scale)

    def cofactors(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial", "Polynomial"]:
        """``(g, self / g, other / g)`` with ``g`` the monic gcd over Q(i).

        When ``g`` is constant the operands come back unchanged.  After the
        shortcuts, :meth:`_gcd_modular` and then Brown's modular gcd
        (:func:`oddsymplectic.brown.gcd_cofactors`) find ``g``;
        the quotients are those of the division that certified it.
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
        proven = Polynomial._gcd_modular(a, b, vars_a, vars_b)
        if proven is not None:
            return proven
        from .brown import gcd_cofactors

        fa, la = _cleared(a.terms)
        fb, lb = _cleared(b.terms)
        ca, cb = _content(fa), _content(fb)
        found = gcd_cofactors(_primitive(fa, ca), _primitive(fb, cb))
        if found is None:
            return Polynomial.one(nvars), a, b
        # a = (ca / la) * primitive(a) = (ca / la) * lc * monic gcd * (a's quotient).
        gcd_terms, quotient_a, quotient_b = found
        lc = GaussianRational(*gcd_terms[max(gcd_terms)])
        g = _polynomial(nvars, gcd_terms, lc.inverse())
        a_g = _polynomial(nvars, quotient_a, lc * GaussianRational(*ca) / la)
        b_g = _polynomial(nvars, quotient_b, lc * GaussianRational(*cb) / lb)
        return g, a_g, b_g

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
    def _gcd_modular(
        a: "Polynomial", b: "Polynomial", vars_a: set[int], vars_b: set[int]
    ) -> "tuple[Polynomial, Polynomial, Polynomial] | None":
        """The :meth:`cofactors` when a computation modulo ``_P`` proves the gcd, else ``None``.

        Each variable both operands hold gets the univariate gcd of their
        images (:func:`_univariate_images`), which must keep both leading
        coefficients, so its degree bounds the true gcd's (Brown, J. ACM 18,
        1971).  Degree 0 everywhere proves the gcd is 1.  If instead it is the
        degree of one operand in each of its variables, one exact division
        checks whether that operand divides the other, and then it is the gcd.
        """
        shared = sorted(vars_a & vars_b)
        points = _residues(a.nvars)
        images_a = _univariate_images(a.terms, shared, points)
        images_b = _univariate_images(b.terms, shared, points)
        if images_a is None or images_b is None:
            return None
        coprime, a_divides, b_divides = True, vars_a <= vars_b, vars_b <= vars_a
        for index in shared:
            fa, fb = images_a[index], images_b[index]
            if not fa[-1] or not fb[-1]:
                return None
            degree = len(_gcd_mod_p(fa, fb, _P)) - 1
            coprime = coprime and not degree
            a_divides = a_divides and degree == len(fa) - 1
            b_divides = b_divides and degree == len(fb) - 1
            if not (coprime or a_divides or b_divides):
                return None
        if coprime:
            return Polynomial.one(a.nvars), a, b
        small, large = (b, a) if b_divides else (a, b)
        quotient = large.divide_exact(small)
        if quotient is None:
            return None
        # Divided by the monic gcd, the divisor leaves its leading coefficient.
        lc = small.leading()[1]
        g, small_g = small.monic(), Polynomial.constant(lc, a.nvars)
        large_g = quotient if lc == 1 else quotient.scale(lc)
        return (g, large_g, small_g) if b_divides else (g, small_g, large_g)

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
