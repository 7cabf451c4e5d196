"""Odd Laplacians on functions relative to a volume element.

With respect to a volume coefficient ``rho`` (an even, invertible-body
function on a Darboux chart), the operator on functions is

    Delta_rho f = Delta_0 f + (1/2) {log rho, f},
    Delta_0 f   = sum_i d^2 f / dx^i dth_i,

where ``{log rho, .} = rho^{-1} {rho, .}`` (the Hamiltonian derivation of
``rho`` over ``rho``).  It depends only on the volume, so a
:class:`VolumeForm` computes it on its first Laplacian and keeps it for
the instance's lifetime; :func:`modular_operator` never reads it and stays
the independent path.  The same operator arises as
``(1/2) (-1)^{p(f)} div_rho D_f`` for the canonical odd bracket; the
divergence form is implemented independently (for brackets of either
parity), which gives a nontrivial cross-check and, for even brackets, the
first-order modular vector field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .brackets import (
    PoissonStructure,
    _apply_derivation,
    _Derivation,
    _hamiltonian_derivation,
    _require_darboux,
    odd_poisson_bracket,
)
from .errors import ChartMismatch, NonInvertibleBody, ParityViolation
from .scalar import Scalar
from .superalgebra import Chart, SuperFunction, _Record, _add_term

__all__ = [
    "VolumeForm",
    "delta0",
    "log_derivative_bracket",
    "delta_rho",
    "delta_rho_squared",
    "divergence",
    "modular_hamiltonian",
    "modular_operator",
]


class VolumeForm(_Record):
    """A volume element ``rho D(x, th)`` given by its even coefficient.

    Equality, hashing and ``repr`` see only ``(chart, coefficient)``.  The
    logarithmic derivative :attr:`log_derivative` is computed on first use,
    not at construction, and kept on the instance, so every Laplacian of one
    volume after the first skips inverting ``rho``.
    """

    _fields = ("chart", "coefficient")

    chart: Chart
    coefficient: SuperFunction

    def __init__(self, chart: Chart, coefficient: SuperFunction) -> None:
        if coefficient.chart != chart:
            raise ChartMismatch("volume coefficient must live on the stated chart")
        if coefficient.parity() != 0:
            raise ParityViolation("volume coefficient must be even")
        if coefficient.body().is_zero():
            raise NonInvertibleBody("volume coefficient must have invertible body")
        self._set(chart=chart, coefficient=coefficient)

    @classmethod
    def standard(cls, chart: Chart) -> "VolumeForm":
        return cls(chart, SuperFunction.one(chart))

    def sqrt(self) -> SuperFunction:
        """The coefficient of the square-root semidensity (exact)."""
        return self.coefficient.sqrt_even()

    def rescale(self, factor: SuperFunction) -> "VolumeForm":
        return VolumeForm(self.chart, self.coefficient * factor)

    @cached_property
    def log_derivative(self) -> _Derivation:
        """``(d log rho / dx^i, d log rho / dth_i)`` per pair: ``rho^{-1} D_rho``."""
        rho_inv = self.coefficient.invert()
        return tuple(
            (rho_inv * a, rho_inv * b) for a, b in _hamiltonian_derivation(self.coefficient)
        )


def delta0(f: SuperFunction) -> SuperFunction:
    """The coordinate odd Laplacian ``sum_i d^2 f / dx^i dth_i``.

    One pass over ``f``'s terms: a term ``c m`` with ``th_i`` in ``m`` adds
    ``(-1)^{|m below i|} (dc/dx^i) m/th_i``, and every term lands in one dict.
    """
    chart = f.chart
    _require_darboux(chart)
    pairs = range(len(chart.odd_coords))  # pair i: even generator i, odd generator i
    terms: dict[int, Scalar] = {}
    for mask, coeff in f.terms.items():
        for i in pairs:
            probe = 1 << i
            if not mask & probe:
                continue
            partial = coeff.partial(i)
            if not partial:
                continue
            if (mask & (probe - 1)).bit_count() & 1:
                partial = -partial
            _add_term(terms, mask ^ probe, partial)
    return SuperFunction._trusted(chart, terms)


def log_derivative_bracket(rho: SuperFunction, f: SuperFunction) -> SuperFunction:
    """``{log rho, f} = rho^{-1} {rho, f}``.

    ``rho`` must be even with invertible body.
    """
    chart = f.chart
    _require_darboux(chart)
    if rho.chart != chart:
        raise ChartMismatch("volume and argument live on different charts")
    if rho.parity() != 0:
        raise ParityViolation("logarithmic derivative requires an even element")
    return rho.invert() * odd_poisson_bracket(rho, f)


def delta_rho(volume: VolumeForm, f: SuperFunction) -> SuperFunction:
    """The odd Laplacian of ``f`` with respect to the volume element.

    Reads the volume's cached :attr:`VolumeForm.log_derivative`.  On
    semidensities it does not depend on the volume: for every ``s``,

        sqrt(rho) * Delta_rho(s / sqrt(rho)) + (Delta_0 sqrt(rho) / sqrt(rho)) * s
            = Delta_0 s,

    the canonical Laplacian of :func:`oddsymplectic.charts.canonical_delta`.
    """
    if f.chart != volume.chart:
        raise ChartMismatch("volume and argument live on different charts")
    half_bracket = _apply_derivation(volume.log_derivative, f).scale(Fraction(1, 2))
    return delta0(f) + half_bracket


def delta_rho_squared(volume: VolumeForm, f: SuperFunction) -> SuperFunction:
    """``Delta_rho(Delta_rho f)`` — the nilpotency defect applied to ``f``."""
    return delta_rho(volume, delta_rho(volume, f))


def divergence(volume: VolumeForm, f: SuperFunction) -> SuperFunction:
    """Divergence ``div_rho D_f`` of the Hamiltonian field of ``f``.

    Computed from :func:`modular_operator` for the canonical odd bracket, as
    ``2 (-1)^{p(f)}`` times it, and not from :func:`delta_rho`; the identity
    ``div_rho D_f = 2 (-1)^{p(f)} Delta_rho f`` is therefore a real check.
    Requires homogeneous ``f`` (the sign depends on its parity).
    """
    p = f.parity_or_raise("divergence argument")
    structure = PoissonStructure.darboux_odd(volume.chart)
    out = modular_operator(structure, volume.coefficient, f).scale(2)
    return -out if p else out


def modular_hamiltonian(volume: VolumeForm, other: VolumeForm) -> SuperFunction:
    """The odd Hamiltonian comparing two volume elements.

    For ``rho' = g rho`` this is ``H = invert(sqrt(g)) * Delta_rho(sqrt(g))``;
    it generates the difference of the squared Laplacians:
    ``Delta_{rho'}^2 - Delta_rho^2 = {H, .}``.
    """
    if other.chart != volume.chart:
        raise ChartMismatch("volume elements live on different charts")
    g = other.coefficient * volume.coefficient.invert()
    root = g.sqrt_even()
    return root.invert() * delta_rho(volume, root)


def modular_operator(
    structure: PoissonStructure, rho: SuperFunction, f: SuperFunction
) -> SuperFunction:
    """``(1/2) (-1)^{p(f)} div_rho D_f`` for any conjugate-pair bracket.

    The divergence of a homogeneous vector field ``X = sum X^A d_A`` (left
    components ``X^A = {f, z^A}``) with respect to ``rho`` is

        div_rho X = invert(rho) * sum_A (-1)^{p(z^A)(p(X)+1)} d_A(rho X^A).

    For the canonical odd bracket this operator *is* ``Delta_rho``, and it
    is the independent oracle for :func:`delta_rho`: it differentiates
    ``rho X^A`` along every generator instead of expanding ``{log rho, f}``.
    For an even bracket the second-order part cancels and a first-order
    (modular) vector field remains.  Mixed-parity ``f`` is handled by
    linearity.
    """
    chart = structure.chart
    if rho.chart != chart or f.chart != chart:
        raise ChartMismatch("operands must live on the structure's chart")
    if rho.parity() != 0:
        raise ParityViolation("volume coefficient must be even")
    rho_inv = rho.invert()
    names: list[str] = []
    for u, v in structure.pairs:
        names.append(u)
        names.append(v)
    result = SuperFunction.zero(chart)
    for part in (f.even_part(), f.odd_part()):
        if part.is_zero():
            continue
        pf = part.parity() or 0
        p_field = (pf + structure.parity) & 1
        acc = SuperFunction.zero(chart)
        for name in names:
            p_gen = chart.parity_of(name)
            component = structure.bracket(part, SuperFunction.generator(chart, name))
            if component.is_zero():
                continue
            term = (rho * component).derivative(name)
            if (p_gen * (p_field + 1)) & 1:
                term = -term
            acc = acc + term
        acc = (rho_inv * acc).scale(Fraction(1, 2))
        result = result + (-acc if pf else acc)
    return result
