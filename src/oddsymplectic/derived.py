"""Derived brackets and the check of the bracket axioms.

:func:`check_axioms` verifies parity, graded antisymmetry, the Leibniz rule
and the graded Jacobi identity for any bracket over a family of inputs.  A
:class:`CotangentStructure` puts a base chart inside its plain or
parity-reversed cotangent chart, with the constant bracket of
:class:`~oddsymplectic.brackets.PoissonStructure` there; a fiber-quadratic
:class:`MasterHamiltonian` ``S`` on it derives the bracket
``[f, g] = {f, {S, g}}`` on the base, and :func:`master_condition` gives
``{S, S}``.  The command line reaches this module only through ``suite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .brackets import PoissonStructure
from .errors import ChartMismatch, NotFiberQuadratic, ParityViolation
from .superalgebra import Chart, SuperFunction

__all__ = [
    "AxiomReport",
    "MAX_FAILURES",
    "check_axioms",
    "CotangentStructure",
    "MasterHamiltonian",
    "master_condition",
]

# Failure messages an axiom check collects before it stops.
MAX_FAILURES = 16


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
