"""Poisson brackets of either parity on charts with conjugate pairs.

The central case is the odd Poisson (Buttin) bracket on a Darboux chart with
pairs ``x^i, th_i``:

    {f, g} = sum_i ( df/dx^i * dg/dth_i + df~/dth_i * dg/dx^i ),

all derivatives acting from the left, with ``f~ = f_even - f_odd`` so that
no parity split of ``f`` is needed.  The pairs ``(df/dx^i, df~/dth_i)`` form
the Hamiltonian derivation ``D_f = {f, .}``, which also gives vector fields,
``{log rho, .}``, Lie derivatives and flows.

The same machinery supports an even or odd bracket for arbitrary conjugate
pairs ``(u^A, v_A)`` with ``p(v_A) = p(u_A) + eps``, which covers cotangent
and parity-reversed cotangent charts and hence derived brackets on a base
from a fiber-quadratic structure Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import (
    ChartMismatch,
    NotFiberQuadratic,
    ParityViolation,
)
from .superalgebra import Chart, SuperFunction

__all__ = [
    "PoissonStructure",
    "odd_poisson_bracket",
    "hamiltonian_vector_field",
    "AxiomReport",
    "MAX_FAILURES",
    "check_axioms",
    "CotangentStructure",
    "MasterHamiltonian",
    "master_condition",
]

# Failure messages an axiom check collects before it stops.
MAX_FAILURES = 16


def _require_darboux(chart: Chart) -> None:
    """Refuse a chart that does not pair every even coordinate with an odd one."""
    if len(chart.even_coords) != len(chart.odd_coords):
        raise ChartMismatch(f"chart {chart.name!r} is not of Darboux type")


@dataclass(frozen=True)
class PoissonStructure:
    """A constant-coefficient bracket given by conjugate pairs.

    ``pairs`` lists ``(u, v)`` generator names with ``{u, g} = + dg/dv`` and
    ``{v, g} = -(-1)^{p(u)(p(u)+parity)} dg/du``; ``parity`` is the bracket's
    parity shift (1 for an odd bracket, 0 for an even one).
    """

    chart: Chart
    pairs: tuple[tuple[str, str], ...]
    parity: int

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for u, v in self.pairs:
            pu = self.chart.parity_of(u)
            pv = self.chart.parity_of(v)
            if (pu + self.parity) % 2 != pv:
                raise ParityViolation(
                    f"pair ({u!r}, {v!r}) violates the parity shift {self.parity}"
                )
            if u in seen or v in seen or u == v:
                raise ValueError("conjugate pairs must use distinct generators")
            seen.add(u)
            seen.add(v)

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
    """``D_f = {f, .}`` as ``(df/dx^i, df~/dth_i)`` per pair, for any parity of ``f``."""
    chart = f.chart
    _require_darboux(chart)
    twisted = _twisted(f)
    return tuple(
        (f.partial_even(x_name), twisted.partial_odd(th_name))
        for x_name, th_name in zip(chart.even_coords, chart.odd_coords)
    )


def _apply_derivation(derivation: _Derivation, g: SuperFunction) -> SuperFunction:
    """``sum_i (a_i dg/dth_i + b_i dg/dx^i)``."""
    chart = g.chart
    result = SuperFunction.zero(chart)
    for x_name, th_name, (a, b) in zip(chart.even_coords, chart.odd_coords, derivation):
        if not a.is_zero():
            result = result + a * g.partial_odd(th_name)
        if not b.is_zero():
            result = result + b * g.partial_even(x_name)
    return result


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


# -- axiom checking ---------------------------------------------------------------


@dataclass
class AxiomReport:
    """Outcome of bracket-axiom checks over a family of inputs."""

    parity: int
    triples_checked: int = 0
    failures: list[str] = field(default_factory=list)
    parity_ok: bool = True
    antisymmetry_ok: bool = True
    leibniz_ok: bool = True
    jacobi_ok: bool = True

    @property
    def all_ok(self) -> bool:
        return self.parity_ok and self.antisymmetry_ok and self.leibniz_ok and self.jacobi_ok


def _shift_sign(p: int, q: int, eps: int) -> int:
    """``(-1)^{(p + eps)(q + eps)}``: the sign of swapping shifted degrees."""
    return -1 if ((p + eps) * (q + eps)) & 1 else 1


def _memoised(
    operation: Callable[[SuperFunction, SuperFunction], SuperFunction],
) -> Callable[[SuperFunction, SuperFunction], SuperFunction]:
    """``operation`` with its results kept by operand identity.

    Each entry holds its operands too, so no address in a key can be reused
    while the memo lives.  Identity keys avoid ``SuperFunction.__hash__``,
    which rebuilds frozensets on every call.
    """
    memo: dict[tuple[int, int], tuple[SuperFunction, SuperFunction, SuperFunction]] = {}

    def call(a: SuperFunction, b: SuperFunction) -> SuperFunction:
        key = (id(a), id(b))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (a, b, operation(a, b))
        return entry[2]

    return call


def check_axioms(
    bracket: Callable[[SuperFunction, SuperFunction], SuperFunction],
    eps: int,
    *,
    triples: Iterable[tuple[SuperFunction, SuperFunction, SuperFunction]],
) -> AxiomReport:
    """Verify parity, graded antisymmetry, Leibniz, and graded Jacobi.

    Checks each ``(f, g, h)`` of ``triples``; pass
    ``itertools.product(family, repeat=3)`` to check a family exhaustively.
    Brackets and products of two inputs are computed once per call.  All
    inputs must be parity-homogeneous.  The check stops after
    :data:`MAX_FAILURES` failure messages.
    """
    eps = eps & 1
    report = AxiomReport(parity=eps)
    pair_bracket = _memoised(bracket)
    product = _memoised(SuperFunction.__mul__)
    for idx, (f, g, h) in enumerate(triples):
        if len(report.failures) >= MAX_FAILURES:
            report.failures.append("... further failures suppressed")
            break
        label = f"triple #{idx}"
        pf = f.parity_or_raise("axiom input")
        pg = g.parity_or_raise("axiom input")
        ph = h.parity_or_raise("axiom input")
        fg = pair_bracket(f, g)

        if not fg.is_zero() and fg.parity() != (pf + pg + eps) & 1:
            report.parity_ok = False
            report.failures.append(f"parity: p({{f,g}}) != p(f)+p(g)+{eps} for {label}")

        if not (fg + pair_bracket(g, f).scale(_shift_sign(pf, pg, eps))).is_zero():
            report.antisymmetry_ok = False
            report.failures.append(f"antisymmetry violated for {label}")

        leibniz_sign = -1 if ((pf + eps) * pg) & 1 else 1
        residue = (
            bracket(f, product(g, h))
            - fg * h
            - (g * pair_bracket(f, h)).scale(leibniz_sign)
        )
        if not residue.is_zero():
            report.leibniz_ok = False
            report.failures.append(f"Leibniz rule violated for {label}")

        jacobi = (
            bracket(f, pair_bracket(g, h)).scale(_shift_sign(pf, ph, eps))
            + bracket(g, pair_bracket(h, f)).scale(_shift_sign(pg, pf, eps))
            + bracket(h, fg).scale(_shift_sign(ph, pg, eps))
        )
        if not jacobi.is_zero():
            report.jacobi_ok = False
            report.failures.append(f"Jacobi identity violated for {label}")

        report.triples_checked += 1
    return report


# -- cotangent-type structures and derived brackets ---------------------------------


@dataclass(frozen=True)
class CotangentStructure:
    """A base chart together with its (parity-reversed or plain) cotangent chart.

    ``reversed_fibers`` selects the parity of the momentum generators: with
    ``False`` momenta copy their coordinate's parity (even bracket on the
    total space); with ``True`` they flip it (odd bracket).
    """

    base: Chart
    chart: Chart = field(init=False, compare=False, repr=False)
    structure: PoissonStructure = field(init=False, compare=False, repr=False)
    reversed_fibers: bool = False

    def __post_init__(self) -> None:
        base = self.base
        eps = 1 if self.reversed_fibers else 0
        even_momenta_of_even: tuple[str, ...] = ()
        odd_momenta_of_even: tuple[str, ...] = ()
        even_momenta_of_odd: tuple[str, ...] = ()
        odd_momenta_of_odd: tuple[str, ...] = ()
        if self.reversed_fibers:
            odd_momenta_of_even = tuple(f"{x}s" for x in base.even_coords)
            even_momenta_of_odd = tuple(f"{t}s" for t in base.odd_coords)
        else:
            even_momenta_of_even = tuple(f"p{x}" for x in base.even_coords)
            odd_momenta_of_odd = tuple(f"p{t}" for t in base.odd_coords)
        chart = Chart(
            name=f"T*{base.name}" if not self.reversed_fibers else f"PiT*{base.name}",
            even_coords=base.even_coords + even_momenta_of_even + even_momenta_of_odd,
            odd_coords=base.odd_coords,
            fiber_odds=odd_momenta_of_even + odd_momenta_of_odd,
            external_odds=base.external_odds,
            params=base.params,
        )
        pairs: list[tuple[str, str]] = []
        if self.reversed_fibers:
            pairs += [(x, f"{x}s") for x in base.even_coords]
            pairs += [(t, f"{t}s") for t in base.odd_coords]
        else:
            pairs += [(x, f"p{x}") for x in base.even_coords]
            pairs += [(t, f"p{t}") for t in base.odd_coords]
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "structure", PoissonStructure(chart, tuple(pairs), eps))

    @property
    def momentum_names(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.structure.pairs)

    def lift(self, f: SuperFunction) -> SuperFunction:
        """Transport a base function to the total chart."""
        if f.chart != self.base:
            raise ChartMismatch("lift expects a function on the base chart")
        return f.retarget(self.chart)

    def restrict_to_base(self, f: SuperFunction) -> SuperFunction:
        """Set all momenta to zero and land back on the base chart."""
        even_momenta = [n for n in self.momentum_names if self.chart.parity_of(n) == 0]
        odd_mask = 0
        for n in self.momentum_names:
            if n not in even_momenta:
                odd_mask |= 1 << self.chart.odd_index(n)
        reduced = f.drop_odd_bits(odd_mask).set_evens_to_zero(even_momenta)
        return reduced.retarget(self.base)


@dataclass(frozen=True)
class MasterHamiltonian:
    """A fiber-quadratic Hamiltonian on a cotangent-type chart.

    Its derived bracket on the base is ``[f, g] = {f, {S, g}}`` with all
    momenta set to zero afterwards; the bracket's parity equals ``p(S)``
    shifted by the ambient parity.
    """

    ambient: CotangentStructure
    hamiltonian: SuperFunction

    def __post_init__(self) -> None:
        S = self.hamiltonian
        if S.chart != self.ambient.chart:
            raise ChartMismatch("structure Hamiltonian must live on the total chart")
        if S.parity() is None:
            raise ParityViolation("structure Hamiltonian must be parity-homogeneous")
        chart = self.ambient.chart
        even_fibers = []
        odd_fiber_mask = 0
        for n in self.ambient.momentum_names:
            if chart.parity_of(n) == 0:
                even_fibers.append(chart.even_index(n))
            else:
                odd_fiber_mask |= 1 << chart.odd_index(n)
        for mask, coeff in S.terms.items():
            odd_deg = (mask & odd_fiber_mask).bit_count()
            if not coeff.is_polynomial():
                raise NotFiberQuadratic("structure Hamiltonian must be polynomial in momenta")
            for exps, _ in coeff.num.terms.items():
                even_deg = sum(exps[i] for i in even_fibers)
                if even_deg + odd_deg != 2:
                    raise NotFiberQuadratic(
                        "every term of the structure Hamiltonian must have fiber degree two"
                    )

    @property
    def derived_parity(self) -> int:
        return (self.hamiltonian.parity() or 0) & 1

    def derived_bracket(self, f: SuperFunction, g: SuperFunction) -> SuperFunction:
        """The bracket ``[f, g] = {f, {S, g}}`` restricted to the base chart."""
        amb = self.ambient
        inner = amb.structure.bracket(self.hamiltonian, amb.lift(g))
        outer = amb.structure.bracket(amb.lift(f), inner)
        return amb.restrict_to_base(outer)


def master_condition(structure: MasterHamiltonian) -> SuperFunction:
    """The self-bracket ``{S, S}`` on the total chart (zero iff master)."""
    S = structure.hamiltonian
    return structure.ambient.structure.bracket(S, S)
