"""Exact division over Z[i] and the gcd stages after the shortcuts.

:meth:`oddsymplectic.poly.Polynomial.divide_exact` and the part of
:meth:`~oddsymplectic.poly.Polynomial.cofactors` past its shortcuts run
here.  Both share one kernel over Z[i]: :func:`_cleared` clears
denominators and :func:`_divide_exact` is the one long division.  The module
is imported when a pair first passes the shortcuts, so a command that
reduces no fraction does not compile it.

The gcd has two stages here.  Two proofs modulo the prime
``p = 1 000 000 009 ≡ 1 (mod 4)``, where ``I`` has an image, settle coprime
pairs and pairs where one operand divides the other (:func:`_gcd_modular`).
Any other pair goes to Brown's dense modular gcd ("On Euclid's algorithm and
the computation of polynomial greatest common divisors", J. ACM 18, 1971),
combined over primes by the Chinese remainder theorem and certified by one
exact division of each operand over Z[i], whose quotients are the cofactors.
"""

from __future__ import annotations

import math
from itertools import chain, count, zip_longest
from typing import Iterable, Iterator

from .gaussian import GaussianRational
from .poly import Polynomial, _Exps

__all__ = ["cofactors", "divide_exact", "gcd_cofactors"]

_GaussInt = tuple[int, int]
_GaussTerms = dict[_Exps, _GaussInt]
_UNIT: _GaussInt = (1, 0)

# The first prime of the modular gcd, ≡ 1 (mod 4), and a square root of -1
# modulo it, the image of ``I``.
_P = 1_000_000_009
_I_MOD_P = 569_522_298


# -- exact division over Z[i] -----------------------------------------------------------


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


def _polynomial(nvars: int, terms: _GaussTerms, factor: GaussianRational) -> Polynomial:
    """``factor`` times the polynomial with the nonzero Gaussian-integer ``terms``."""
    out = {e: GaussianRational(re, im) for e, (re, im) in terms.items()}
    if factor != 1:
        out = {e: c * factor for e, c in out.items()}
    return Polynomial._trusted(nvars, out)


def divide_exact(num: Polynomial, div: Polynomial) -> Polynomial | None:
    """:meth:`Polynomial.divide_exact` for a nonzero divisor on the same variables."""
    num_terms, num_lcm = _cleared(num.terms)
    div_terms, div_lcm = _cleared(div.terms)
    content = _content(div_terms)
    quotient = _divide_exact(num_terms, _primitive(div_terms, content))
    if quotient is None:
        return None
    cr, ci = content
    scale = GaussianRational(div_lcm) / GaussianRational(num_lcm * cr, num_lcm * ci)
    return _polynomial(num.nvars, quotient, scale)


# -- proofs modulo one prime ------------------------------------------------------------


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


def _gcd_modular(
    a: Polynomial, b: Polynomial, vars_a: set[int], vars_b: set[int]
) -> tuple[Polynomial, Polynomial, Polynomial] | None:
    """The :func:`cofactors` when a computation modulo ``_P`` proves the gcd, else ``None``.

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


# -- Brown's modular gcd ----------------------------------------------------------------


def _quo_p(f: list[int], g: list[int], p: int) -> list[int]:
    """The quotient in Z/p[x] of dense lists by a divisor ``g``."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    out = [0] * (len(f) - dg)
    for i in reversed(range(len(out))):
        q = out[i] = f[i + dg] * inv % p
        for k in range(dg):
            f[i + k] = (f[i + k] - q * g[k]) % p
    return out


def _mul_p(f: list[int], g: list[int], p: int) -> list[int]:
    """The product in Z/p[x] of dense lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _content_p(lists: Iterable[list[int]], p: int) -> list[int]:
    """Monic gcd in Z/p[x] of nonzero dense lists."""
    c: list[int] = []
    for f in sorted(lists, key=len):
        c = _gcd_mod_p(c, f, p)
        if len(c) == 1:
            break
    return c


def _value(f: list[int], x: int, p: int) -> int:
    """The value at ``x`` in Z/p of a dense list."""
    v = 0
    for c in reversed(f):
        v = (v * x + c) % p
    return v


def _divides_p(num: dict[_Exps, int], div: dict[_Exps, int], p: int) -> bool:
    """Whether ``div`` divides ``num`` in Z/p[x_0..x_k], by long division in lex order."""
    lt_d = max(div)
    inv = pow(div[lt_d], -1, p)
    tail = [(e, v) for e, v in div.items() if e != lt_d]
    rem = dict(num)
    while rem:
        lt_r = max(rem)
        diff = tuple(a - b for a, b in zip(lt_r, lt_d))
        if any(d < 0 for d in diff):
            return False
        q = rem.pop(lt_r) * inv % p
        for exps, v in tail:
            shifted = tuple(a + b for a, b in zip(exps, diff))
            w = (rem.get(shifted, 0) - q * v) % p
            if w:
                rem[shifted] = w
            else:
                rem.pop(shifted, None)
    return True


def _split(f: dict[_Exps, int]) -> dict[_Exps, list[int]]:
    """``f`` over Z/p as a polynomial in its other variables over Z/p[its last variable]."""
    out: dict[_Exps, list[int]] = {}
    for exps, v in f.items():
        dense = out.setdefault(exps[:-1], [])
        dense.extend([0] * (exps[-1] + 1 - len(dense)))
        dense[exps[-1]] = v
    return out


def _pgcd(f: dict[_Exps, int], g: dict[_Exps, int], p: int, base: int = 2) -> dict[_Exps, int]:
    """A gcd in Z/p[x_0..x_k] of nonzero polynomials, by Brown's dense recursion.

    ``c``, the gcd of all coefficients in the last variable, is the gcd's
    content there.  Image gcds at points where ``gamma``, the gcd of the
    leading coefficients, survives come recursively, lead with ``gamma``'s
    value and are Newton-interpolated in the last variable.  A smaller
    leading monomial restarts (earlier points were unlucky); a larger one is
    skipped.  Once there are ``enough`` points for the degree in the last
    variable, or sooner when a point leaves the interpolant unchanged, the
    interpolant's primitive part times ``c`` is the candidate: it is the gcd
    if it divides both operands, and otherwise more points follow.  A
    candidate built from unlucky points alone has too large a leading
    monomial to divide both, so the loop ends only with the gcd; and it
    ends, as only finitely many points are unlucky.
    Points are powers of the prime ``base`` and the next level takes the next
    prime, so a relation between two variables, such as ``x0 = x2``, does not
    make the first points of every call unlucky.
    """
    if len(next(iter(f))) == 1:
        fd = [f.get((k,), 0) for k in range(max(f)[0] + 1)]
        gd = [g.get((k,), 0) for k in range(max(g)[0] + 1)]
        return {(k,): v for k, v in enumerate(_gcd_mod_p(fd, gd, p)) if v}
    sf, sg = _split(f), _split(g)
    c = _content_p(chain(sf.values(), sg.values()), p)
    gamma = _gcd_mod_p(sf[max(sf)], sg[max(sg)], p)
    # With every point lucky, this many points determine the interpolant.
    enough = min(max(map(len, sf.values())), max(map(len, sg.values()))) + len(gamma) - 1
    below = next(b for b in count(base + 1) if all(b % d for d in range(2, b)))
    h: dict[_Exps, list[int]] = {}
    lm: _Exps = ()
    q = [1]  # the product of (x - alpha) over the points in h
    alpha = pow(base, 63, p)
    while True:
        alpha = alpha * base % p
        scale = _value(gamma, alpha, p)
        fa = {m: v for m, dense in sf.items() if (v := _value(dense, alpha, p))}
        ga = {m: v for m, dense in sg.items() if (v := _value(dense, alpha, p))}
        if not (scale and fa and ga):
            continue
        image = _pgcd(fa, ga, p, below)
        top = max(image)
        if not any(top):
            return {top + (k,): v for k, v in enumerate(c) if v}
        if h and top > lm:
            continue
        if not h or top < lm:
            h, lm, q = {}, top, [1]
        scale = scale * pow(image[top], -1, p) % p
        inv = pow(_value(q, alpha, p), -1, p)
        changed = False
        for m in h.keys() | image.keys():
            old = h.get(m, [])
            delta = (image.get(m, 0) * scale - _value(old, alpha, p)) * inv % p
            if delta:
                # q is monic of higher degree than old, so the new lead is delta.
                h[m] = [(x + delta * y) % p for x, y in zip_longest(old, q, fillvalue=0)]
                changed = True
        q = _mul_p(q, [p - alpha, 1], p)
        if changed and len(q) <= enough:
            continue
        content = _content_p(h.values(), p)
        candidate: dict[_Exps, int] = {}
        for m, dense in h.items():
            if len(content) > 1:
                dense = _quo_p(dense, content, p)
            if len(c) > 1:
                dense = _mul_p(c, dense, p)
            candidate.update((m + (k,), v) for k, v in enumerate(dense) if v)
        if _divides_p(f, candidate, p) and _divides_p(g, candidate, p):
            return candidate


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for odd ``37 < n < 3.3e24``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if pow(a, d, n) != 1 and all(pow(a, d << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _primes() -> Iterator[tuple[int, int]]:
    """The primes ``p ≡ 1 (mod 4)`` from :data:`_P` up, each with a root of -1 modulo ``p``."""
    p, r = _P, _I_MOD_P
    while True:
        yield p, r
        p = next(n for n in count(p + 4, 4) if _is_prime(n))
        # A quadratic nonresidue c gives r = c^((p - 1)/4).
        r = next(x for c in count(2) if (x := pow(c, (p - 1) // 4, p)) * x % p == p - 1)


def _image_p(terms: _GaussTerms, p: int, r: int) -> dict[_Exps, int]:
    """The image in Z/p of Gaussian-integer terms, with ``I -> r``."""
    return {e: w for e, (re, im) in terms.items() if (w := (re + im * r) % p)}


def _nearest(residues: dict[_Exps, int], modulus: int, root: int, real: bool) -> _GaussTerms:
    """Residues modulo ``modulus`` with ``I -> root``, read as Gaussian integers near 0.

    They are residues modulo ``pi = gcd(modulus, root - I)`` in Z[i] (the
    modulus itself for real operands), and each is lifted to the Gaussian
    integer nearest 0 in its class.
    """
    pr, pi = (modulus, 0) if real else _gaussian_gcd((modulus, 0), (root, -1))
    norm = pr * pr + pi * pi
    out: _GaussTerms = {}
    for e, u in residues.items():
        # u - q * pi with q = u / pi rounded, u / pi = u * conj(pi) / norm.
        qr = (2 * u * pr + norm) // (2 * norm)
        qi = (norm - 2 * u * pi) // (2 * norm)
        z = (u - qr * pr + qi * pi, -qr * pi - qi * pr)
        if z != (0, 0):
            out[e] = z
    return out


def gcd_cofactors(
    f: _GaussTerms, g: _GaussTerms
) -> tuple[_GaussTerms, _GaussTerms, _GaussTerms] | None:
    """Brown's gcd of primitive Gaussian-integer polynomials and both quotients; ``None`` for 1.

    Modulo each prime ``p`` of :func:`_primes`, ``I`` goes to ``r``, and the
    image gcd from :func:`_pgcd` is scaled to lead with the image of
    ``gamma``, the gcd of the leading coefficients.  Primes combine by the
    Chinese remainder theorem, under :func:`_pgcd`'s restart and skip rule,
    and :func:`_nearest` reads the result back in Z[i].  Its primitive part,
    certified by exact division of both operands, is the gcd.  Absent
    variables are dropped and those of least degree come last, for
    :func:`_pgcd` to interpolate.
    """
    degree = {i: max(e[i] for e in chain(f, g)) for i in range(len(next(iter(f))))}
    live = sorted((i for i in degree if degree[i]), key=degree.__getitem__, reverse=True)
    spread = [live.index(i) if i in live else len(live) for i in degree]
    packed_f = {tuple(e[i] for i in live): c for e, c in f.items()}
    packed_g = {tuple(e[i] for i in live): c for e, c in g.items()}
    lf, lg = packed_f[max(packed_f)], packed_g[max(packed_g)]
    gamma = _gaussian_gcd(lf, lg)
    real = not any(v[1] for v in chain(f.values(), g.values()))
    acc: dict[_Exps, int] = {}  # the gcd's residues modulo ``modulus``, with I -> root
    lm: _Exps = ()
    modulus, root = 1, 0
    for p, r in _primes():
        if not (lf[0] + lf[1] * r) % p or not (lg[0] + lg[1] * r) % p:
            continue
        h = _pgcd(_image_p(packed_f, p, r), _image_p(packed_g, p, r), p)
        top = max(h)
        if not any(top):
            return None
        if acc and top > lm:
            continue
        if not acc or top < lm:
            acc, lm, modulus, root = {}, top, 1, 0
        scale = (gamma[0] + gamma[1] * r) * pow(h[top], -1, p) % p
        inv = pow(modulus, -1, p)
        for e in h.keys() | acc.keys():
            u = acc.get(e, 0)
            acc[e] = u + modulus * ((h.get(e, 0) * scale - u) * inv % p)
        root += modulus * ((r - root) * inv % p)
        modulus *= p
        lifted = _nearest(acc, modulus, root, real)
        candidate = {
            tuple((e + (0,))[j] for j in spread): c
            for e, c in _primitive(lifted, _content(lifted)).items()
        }
        quotient_f = _divide_exact(f, candidate)
        if quotient_f is None:
            continue
        quotient_g = _divide_exact(g, candidate)
        if quotient_g is not None:
            return candidate, quotient_f, quotient_g
    raise AssertionError("unreachable")


def cofactors(
    a: Polynomial, b: Polynomial, vars_a: set[int], vars_b: set[int]
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """:meth:`Polynomial.cofactors` for a pair its shortcuts leave open.

    ``a`` and ``b`` share a variable, have two terms or more, no common
    monomial factor and variables ``vars_a`` and ``vars_b``.
    :func:`_gcd_modular` and then :func:`gcd_cofactors` find the gcd; the
    quotients are those of the division that certified it.
    """
    proven = _gcd_modular(a, b, vars_a, vars_b)
    if proven is not None:
        return proven
    nvars = a.nvars
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
