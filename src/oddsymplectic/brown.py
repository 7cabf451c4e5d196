"""Brown's dense modular gcd over the Gaussian integers.

The last stage of :meth:`oddsymplectic.poly.Polynomial.cofactors`, for the
pairs that its shortcuts and its proofs modulo one prime leave open (Brown,
"On Euclid's algorithm and the computation of polynomial greatest common
divisors", J. ACM 18, 1971).  It lives in its own module, which
``cofactors`` imports when a pair first reaches it, so a command that never
needs it does not compile it.
"""

from __future__ import annotations

from itertools import chain, count, zip_longest
from typing import Iterable, Iterator

from .poly import (
    _I_MOD_P,
    _P,
    _content,
    _divide_exact,
    _Exps,
    _gaussian_gcd,
    _GaussTerms,
    _gcd_mod_p,
    _primitive,
)

__all__ = ["gcd_cofactors"]


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
