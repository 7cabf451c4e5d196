"""Master equations for actions, semidensities, and volume elements.

Three layers of the same nilpotency story:

* an even function ``g`` feeds the exponential identity
  ``Delta_0 exp(g) = (Delta_0 g + (1/2){g, g}) exp(g)``, so the residual
  ``Delta_0 g + (1/2){g, g}`` measures the failure of ``exp(g)`` to be
  closed;
* an even action ``S`` on a chart with the quantisation parameter satisfies
  the quantum master equation when ``-4 hbar Delta_0 S + {S, S}`` vanishes;
  its ``hbar``-free part obeys the classical master equation ``{S_0, S_0} =
  0``, which is the zeroth coefficient of the quantum residual;
* a volume element ``rho`` has a square-root semidensity whose Laplacian is
  measured against the root itself: ``Delta_0 sqrt(rho) = nu sqrt(rho)``
  with ``nu`` an odd constant exactly when the weighted Laplacian
  ``Delta_rho`` squares to zero.

All residuals are exact symbolic objects; every check is an equality of
coefficients, never a numerical comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .brackets import odd_poisson_bracket
from .charts import Density, canonical_delta
from .errors import ChartMismatch, NotProportional, ParityViolation
from .forms import form_degree_component, semidensity_to_form
from .laplacians import VolumeForm, delta0
from .superalgebra import OddKind, SuperFunction, _nilpotent_series, _Record

__all__ = [
    "nilpotent_exponential",
    "exp_identity_residual",
    "quantum_master_residual",
    "classical_master_residual",
    "SemidensityMasterReport",
    "semidensity_master_check",
    "NuReport",
    "nu_constant",
]


HBAR = "hbar"


def nilpotent_exponential(g: SuperFunction) -> SuperFunction:
    """``exp(g)`` as a finite sum; exact only when ``g`` has no constant term."""
    if not g.body().is_zero():
        raise ValueError(
            "the exponential terminates only for a vanishing theta-free part"
        )
    return _nilpotent_series(g, lambda k: Fraction(1, math.factorial(k)))


def exp_identity_residual(g: SuperFunction) -> SuperFunction:
    """``Delta_0 g + (1/2){g, g}`` for an even ``g``; only the residual.

    When ``g`` has no constant term the residual satisfies
    ``Delta_0 exp(g) = residual * exp(g)`` on the finite exponential
    :func:`nilpotent_exponential`; this function does not check that
    identity, the ``master`` suite does.
    """
    if g.parity_or_raise("exponent") != 0:
        raise ParityViolation("the exponential identity holds for even exponents")
    return delta0(g) + odd_poisson_bracket(g, g).scale(Fraction(1, 2))


# -- quantum and classical actions ---------------------------------------------------


def _require_even_action(action: SuperFunction) -> None:
    if action.parity_or_raise("action") != 0:
        raise ParityViolation("a master action must be even")


def quantum_master_residual(action: SuperFunction) -> SuperFunction:
    """``-4 hbar Delta_0 S + {S, S}`` — zero exactly on quantum master actions."""
    _require_even_action(action)
    hbar = SuperFunction.generator(action.chart, HBAR)
    return (-4 * hbar) * delta0(action) + odd_poisson_bracket(action, action)


def classical_master_residual(action: SuperFunction) -> SuperFunction:
    """``{S_0, S_0}`` for the parameter-free part of the action."""
    _require_even_action(action)
    limit = action.coefficients_in_param(HBAR).get(0, SuperFunction.zero(action.chart))
    return odd_poisson_bracket(limit, limit)


# -- semidensities -------------------------------------------------------------------


class SemidensityMasterReport(_Record):
    """Whether a semidensity is closed, and optionally exact for a witness."""

    _fields = ("residual", "closed", "exact_matches")

    residual: Density
    closed: bool
    exact_matches: bool | None

    def __init__(self, residual: Density, closed: bool, exact_matches: bool | None = None) -> None:
        self._set(residual=residual, closed=closed, exact_matches=exact_matches)


def semidensity_master_check(
    density: Density, candidate: Density | None = None
) -> SemidensityMasterReport:
    """Check ``Delta s = 0``; with a candidate ``r``, also check ``s = Delta r``."""
    residual = canonical_delta(density)
    closed = residual.coefficient.is_zero()
    exact: bool | None = None
    if candidate is not None:
        exact = canonical_delta(candidate) == density
    return SemidensityMasterReport(residual=residual, closed=closed, exact_matches=exact)


# -- the odd constant of a volume element ---------------------------------------------


class NuReport(_Record):
    """The odd constant ``nu`` with ``Delta_0 sqrt(rho) = nu sqrt(rho)``.

    ``root_closed`` records ``nu == 0``; when the chart supports the form
    bridge and the root is closed, ``zero_form_constant`` carries the
    degree-zero component of the corresponding closed form.
    """

    _fields = ("root", "nu", "root_closed", "zero_form_constant")

    root: SuperFunction
    nu: SuperFunction
    root_closed: bool
    zero_form_constant: SuperFunction | None

    def __init__(
        self,
        root: SuperFunction,
        nu: SuperFunction,
        root_closed: bool,
        zero_form_constant: SuperFunction | None = None,
    ) -> None:
        self._set(root=root, nu=nu, root_closed=root_closed, zero_form_constant=zero_form_constant)


def _is_chart_constant(f: SuperFunction) -> bool:
    for name in f.chart.even_coords:
        if not f.partial_even(name).is_zero():
            return False
    geometric = f.chart.mask_of_kind(OddKind.COORDINATE) | f.chart.mask_of_kind(
        OddKind.FIBER
    )
    return all(not (mask & geometric) for mask in f.terms)


def nu_constant(volume: VolumeForm) -> NuReport:
    """Extract the odd constant of a volume element, or report why none exists.

    The quotient ``Delta_0 sqrt(rho) / sqrt(rho)`` generates the square of
    the weighted Laplacian as a bracket; it must therefore be a constant for
    the Laplacian to be nilpotent.  A non-constant quotient raises
    ``NotProportional`` carrying the offending Hamiltonian in its
    ``hamiltonian`` attribute.
    """
    root = volume.sqrt()
    hamiltonian = delta0(root) * root.invert()
    if not _is_chart_constant(hamiltonian):
        error = NotProportional(
            "the root's Laplacian is not a constant multiple of the root, so the"
            " weighted Laplacian squares to a nonzero Hamiltonian bracket"
        )
        error.hamiltonian = hamiltonian  # type: ignore[attr-defined]
        raise error
    nu = hamiltonian
    closed = nu.is_zero()
    constant: SuperFunction | None = None
    if closed:
        try:
            form = semidensity_to_form(Density.semidensity(root))
        except ChartMismatch:
            constant = None
        else:
            constant = form_degree_component(form, 0)
    return NuReport(
        root=root,
        nu=nu,
        root_closed=closed,
        zero_form_constant=constant,
    )
