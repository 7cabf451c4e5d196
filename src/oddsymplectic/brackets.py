"""Poisson brackets of either parity on charts with conjugate pairs.

The central case is the odd Poisson (Buttin) bracket on a Darboux chart with
pairs ``x^i, th_i``:

    {f, g} = sum_i ( df/dx^i * dg/dth_i + df~/dth_i * dg/dx^i ),

all derivatives acting from the left, with ``f~ = f_even - f_odd`` so that
no parity split of ``f`` is needed.  The pairs ``(df/dx^i, df~/dth_i)`` form
the Hamiltonian derivation ``D_f = {f, .}``, which also gives vector fields,
``{log rho, .}``, Lie derivatives and flows.  ``D_f`` is read off ``f``'s
terms in one pass and applied in one pass over ``g``'s terms, summing every
product into one dict; :func:`oddsymplectic.laplacians.delta0` works the same
way.

The same machinery supports an even or odd bracket for arbitrary conjugate
pairs ``(u^A, v_A)`` with ``p(v_A) = p(u_A) + eps``, which covers cotangent
and parity-reversed cotangent charts; :mod:`oddsymplectic.derived` builds
derived brackets from it and checks the bracket axioms.
"""

from __future__ import annotations

from .errors import ChartMismatch, ParityViolation
from .scalar import Scalar
from .superalgebra import Chart, SuperFunction, _Record, koszul_sign

__all__ = [
    "PoissonStructure",
    "odd_poisson_bracket",
    "hamiltonian_vector_field",
]


def _require_darboux(chart: Chart) -> None:
    """Refuse a chart that does not pair every even coordinate with an odd one."""
    if len(chart.even_coords) != len(chart.odd_coords):
        raise ChartMismatch(f"chart {chart.name!r} is not of Darboux type")


class PoissonStructure(_Record):
    """A constant-coefficient bracket given by conjugate pairs.

    ``pairs`` lists ``(u, v)`` generator names with ``{u, g} = + dg/dv`` and
    ``{v, g} = -(-1)^{p(u)(p(u)+parity)} dg/du``; ``parity`` is the bracket's
    parity shift (1 for an odd bracket, 0 for an even one).
    """

    _fields = ("chart", "pairs", "parity")

    chart: Chart
    pairs: tuple[tuple[str, str], ...]
    parity: int

    def __init__(self, chart: Chart, pairs: tuple[tuple[str, str], ...], parity: int) -> None:
        seen: set[str] = set()
        for u, v in pairs:
            pu = chart.parity_of(u)
            pv = chart.parity_of(v)
            if (pu + parity) % 2 != pv:
                raise ParityViolation(
                    f"pair ({u!r}, {v!r}) violates the parity shift {parity}"
                )
            if u in seen or v in seen or u == v:
                raise ValueError("conjugate pairs must use distinct generators")
            seen.add(u)
            seen.add(v)
        self._set(chart=chart, pairs=pairs, parity=parity)

    @classmethod
    def darboux_odd(cls, chart: Chart) -> "PoissonStructure":
        """The canonical odd bracket pairing ``x^i`` with ``th_i``."""
        _require_darboux(chart)
        return cls(chart, tuple(zip(chart.even_coords, chart.odd_coords)), 1)

    def bracket(self, f: SuperFunction, g: SuperFunction) -> SuperFunction:
        """The bracket ``{f, g}``; no homogeneity assumptions on ``f``, ``g``.

        For :meth:`darboux_odd` this is the independent oracle for
        :func:`odd_poisson_bracket`: it reaches the same bracket from the
        conjugate pairs and their parities, with no Darboux-specific code.
        """
        if f.chart != self.chart or g.chart != self.chart:
            raise ChartMismatch("bracket operands must live on the structure's chart")
        result = SuperFunction.zero(self.chart)
        parts = [p for p in (f.even_part(), f.odd_part()) if not p.is_zero()]
        eps = self.parity & 1
        for part in parts:
            pf = part.parity() or 0
            for u, v in self.pairs:
                a = self.chart.parity_of(u)
                b = (a + eps) & 1
                sign_uv = -1 if (a * (pf + a)) & 1 else 1
                sign_vu = -1 if (a * b + b * (pf + b)) & 1 else 1
                du = part.derivative(u)
                if not du.is_zero():
                    result = result + (du * g.derivative(v)).scale(sign_uv)
                dv = part.derivative(v)
                if not dv.is_zero():
                    result = result - (dv * g.derivative(u)).scale(sign_vu)
        return result


# Per conjugate pair (x^i, th_i): the coefficients (a_i, b_i) of a derivation
# sum_i (a_i d/dth_i + b_i d/dx^i).
_Derivation = tuple[tuple[SuperFunction, SuperFunction], ...]


def _twisted(f: SuperFunction) -> SuperFunction:
    """``f_even - f_odd``: each homogeneous part times ``(-1)^{p}``."""
    return SuperFunction._trusted(
        f.chart, {m: -c if m.bit_count() & 1 else c for m, c in f.terms.items()}
    )


def _hamiltonian_derivation(f: SuperFunction) -> _Derivation:
    """``D_f = {f, .}`` as ``(df/dx^i, df~/dth_i)`` per pair, for any parity of ``f``.

    One pass over ``f``'s terms fills both coefficients of every pair.  Pair
    ``i`` is even generator ``i`` and odd generator ``i``, since a chart lists
    its coordinates first.  A term's mask gives both signs of ``df~/dth_i``:
    the twist ``(-1)^{|m|}`` and the ``(-1)^{|m below i|}`` of the left
    derivative.
    """
    chart = f.chart
    _require_darboux(chart)
    n = len(chart.even_coords)
    d_x: list[dict[int, Scalar]] = [{} for _ in range(n)]
    d_th: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for mask, coeff in f.terms.items():
        twist = mask.bit_count()
        for i in range(n):
            partial = coeff.partial(i)
            if partial:
                d_x[i][mask] = partial
            probe = 1 << i
            if mask & probe:
                sign = twist + (mask & (probe - 1)).bit_count()
                d_th[i][mask ^ probe] = -coeff if sign & 1 else coeff
    return tuple(
        (SuperFunction._trusted(chart, a), SuperFunction._trusted(chart, b))
        for a, b in zip(d_x, d_th)
    )


def _apply_derivation(derivation: _Derivation, g: SuperFunction) -> SuperFunction:
    """``sum_i (a_i dg/dth_i + b_i dg/dx^i)``, summed term by term into one dict.

    Each term ``c m`` of ``g`` meets each pair once: its left derivative along
    ``th_i`` multiplies the terms of ``a_i`` and its coefficient's partial
    along ``x^i`` those of ``b_i``.  Masks that overlap and partials that
    vanish are skipped before any product is formed.
    """
    terms: dict[int, Scalar] = {}

    def accumulate(left: SuperFunction, right_mask: int, right: Scalar, negate: bool) -> None:
        """Add ``(-1)^negate * left * (right m)``, ``m`` the monomial ``right_mask``."""
        for mask, coeff in left.terms.items():
            if mask & right_mask:
                continue
            prod = coeff * right
            if (koszul_sign(mask, right_mask) < 0) != negate:
                prod = -prod
            key = mask | right_mask
            acc = terms.get(key)
            if acc is None:
                terms[key] = prod
            else:
                acc = acc + prod
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]

    for g_mask, g_coeff in g.terms.items():
        for i, (a, b) in enumerate(derivation):
            probe = 1 << i
            if a.terms and g_mask & probe:
                below = (g_mask & (probe - 1)).bit_count()
                accumulate(a, g_mask ^ probe, g_coeff, below & 1 == 1)
            if b.terms:
                partial = g_coeff.partial(i)
                if partial:
                    accumulate(b, g_mask, partial, False)
    return SuperFunction._trusted(g.chart, terms)


def odd_poisson_bracket(f: SuperFunction, g: SuperFunction) -> SuperFunction:
    """Canonical odd bracket on a Darboux chart (pairs ``x^i, th_i``)."""
    if g.chart != f.chart:
        raise ChartMismatch("bracket operands live on different charts")
    return _apply_derivation(_hamiltonian_derivation(f), g)


def hamiltonian_vector_field(f: SuperFunction) -> dict[str, SuperFunction]:
    """Components ``{name: {f, name}}`` of ``D_f``: its coefficients, with no product."""
    chart = f.chart
    derivation = _hamiltonian_derivation(f)
    out = {x_name: b for x_name, (_, b) in zip(chart.even_coords, derivation)}
    out.update((th_name, a) for th_name, (a, _) in zip(chart.odd_coords, derivation))
    return out
