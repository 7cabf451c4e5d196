"""Differential forms as fiber-odd functions and their semidensity avatars.

A differential form on the base is encoded as a function of ``(x, xi)`` on a
fiber-odd chart (``xi^i`` plays the role of ``dx^i``); a multivector field is
a function of ``(x, th)`` on the conjugate chart (``th_i`` encodes a wedge
factor of the coordinate vector field along ``x^i``).  The bridge between the
two pictures is an odd Fourier transform: a Berezin integral against the
kernel ``exp(C sum_k xi^k th_k)`` on a chart carrying both odd blocks.  The
sign ``C`` and the normalisation are pinned so that on a two-dimensional base

    f            ->  f th1 th2,
    w1 dx1 + w2 dx2 ->  w1 th2 - w2 th1,
    w dx1 dx2    ->  -w,

and so that the two directions are mutually inverse and intertwine the de
Rham differential with the coefficient Laplacian ``Delta_0``.  On each
monomial the transform is the complementary monomial times a sign, and it is
computed by that sign rule (``_complement``); the tests keep the kernel as
the oracle the rule is checked against.

The remaining operations ride on the bridge: divergence of multivector
fields against a base volume, the shift action of odd-valued one-forms, and
restriction of a semidensity to the Lagrangian graph of a closed one-form.
"""

from __future__ import annotations

from typing import Sequence

from .charts import (
    Density,
    Transition,
    _require_semidensity,
    _shift_images,
    transform_density,
)
from .errors import (
    ChartMismatch,
    NonInvertibleBody,
    ParityViolation,
)
from .laplacians import VolumeForm, delta_rho
from .scalar import Scalar
from .superalgebra import Chart, OddKind, SuperFunction, _Record, _add_term, bits_of

__all__ = [
    "BaseDensity",
    "darboux_partner",
    "forms_partner",
    "form_degree_component",
    "de_rham",
    "form_to_semidensity",
    "semidensity_to_form",
    "hodge",
    "DivergenceReport",
    "divergence_correspondence",
    "one_form_action",
    "restrict_to_lagrangian",
]


# -- chart plumbing ---------------------------------------------------------------------


def _base_dimension(chart: Chart, *, forms: bool) -> int:
    """The base dimension of a forms chart or, with ``forms=False``, a Darboux one.

    A forms chart has fibers ``xi1..xin`` and no ``th`` block; a Darboux
    chart has ``th1..thn`` and no fiber block.  Any other chart raises.
    """
    n = len(chart.even_coords)
    ths = tuple(f"th{i}" for i in range(1, n + 1))
    xis = tuple(f"xi{i}" for i in range(1, n + 1))
    blocks = (chart.odd_coords, chart.fiber_odds)
    if forms and blocks != ((), xis):
        raise ChartMismatch(
            "expected a fiber-odd chart with generators xi1..xin and no th block"
        )
    if not forms and blocks != (ths, ()):
        raise ChartMismatch(
            "expected a Darboux chart with generators th1..thn and no fiber block"
        )
    return n


def darboux_partner(forms_chart: Chart) -> Chart:
    """The Darboux chart conjugate to a fiber-odd chart (same base, th block)."""
    n = _base_dimension(forms_chart, forms=True)
    ths = tuple(f"th{i}" for i in range(1, n + 1))
    return Chart(
        forms_chart.name,
        forms_chart.even_coords,
        odd_coords=ths,
        external_odds=forms_chart.external_odds,
        params=forms_chart.params,
    )


def forms_partner(darboux_chart: Chart) -> Chart:
    """The fiber-odd chart conjugate to a Darboux chart (same base, xi block)."""
    n = _base_dimension(darboux_chart, forms=False)
    xis = tuple(f"xi{i}" for i in range(1, n + 1))
    return Chart(
        darboux_chart.name,
        darboux_chart.even_coords,
        fiber_odds=xis,
        external_odds=darboux_chart.external_odds,
        params=darboux_chart.params,
    )


def _complement(f: SuperFunction, target: Chart, sign: int) -> SuperFunction:
    """Send each ``c u_S e`` to ``sign (-1)^{sum S} c u_{S'} e`` on ``target``.

    ``u_S`` uses the first ``n`` odd bits (``xi`` or ``th``) with 0-based
    indices ``S``; the externals ``e`` sit at the same bits on both charts.
    """
    n = len(target.even_coords)
    block = (1 << n) - 1
    odd = sum(1 << bit for bit in range(1, n, 2))  # (-1)^{sum S} = (-1)^{#(S & odd)}
    flip = sign < 0
    terms: dict[int, Scalar] = {}
    for mask, c in f.terms.items():
        terms[mask ^ block] = -c if (mask & odd).bit_count() & 1 != flip else c
    return SuperFunction._trusted(target, terms)


def form_degree_component(omega: SuperFunction, k: int) -> SuperFunction:
    """The degree-``k`` part of a form (terms with exactly ``k`` fiber factors)."""
    fiber = omega.chart.mask_of_kind(OddKind.FIBER)
    return SuperFunction(
        omega.chart,
        {m: c for m, c in omega.terms.items() if (m & fiber).bit_count() == k},
    )


# -- the differential and the bridge ------------------------------------------------------


def de_rham(omega: SuperFunction) -> SuperFunction:
    """The exterior differential ``sum_i xi^i d/dx^i`` (squares to zero)."""
    n = _base_dimension(omega.chart, forms=True)
    out = SuperFunction.zero(omega.chart)
    for i in range(n):
        xi = SuperFunction.generator(omega.chart, f"xi{i + 1}")
        out = out + xi * omega.partial_even(omega.chart.even_coords[i])
    return out


def form_to_semidensity(omega: SuperFunction) -> Density:
    """Turn a form into the semidensity with the pinned monomial images."""
    return Density.semidensity(_complement(omega, darboux_partner(omega.chart), 1))


def semidensity_to_form(density: Density) -> SuperFunction:
    """The inverse bridge: a semidensity's differential form."""
    _require_semidensity(density)
    fchart = forms_partner(density.chart)
    n = len(fchart.fiber_odds)
    return _complement(density.coefficient, fchart, (-1) ** (n * (n - 1) // 2))


# -- base densities and multivector divergence --------------------------------------------


class BaseDensity(_Record):
    """A density on the base: a coefficient free of both odd coordinate blocks.

    External odd constants may appear in the coefficient; the coordinate and
    fiber generators may not.
    """

    _fields = ("chart", "coefficient")

    chart: Chart
    coefficient: SuperFunction

    def __init__(self, chart: Chart, coefficient: SuperFunction) -> None:
        if coefficient.chart != chart:
            raise ChartMismatch("base density coefficient must live on the stated chart")
        if coefficient.odd_degree(OddKind.COORDINATE) or coefficient.odd_degree(OddKind.FIBER):
            raise ParityViolation(
                "a base density may not involve the odd coordinates or fibers"
            )
        self._set(chart=chart, coefficient=coefficient)

    @classmethod
    def constant(cls, chart: Chart, value=1) -> "BaseDensity":
        return cls(chart, SuperFunction.from_scalar(chart, value))


def hodge(f: SuperFunction, sigma: BaseDensity) -> SuperFunction:
    """The form of a multivector field against a base volume: bridge of ``f sigma``."""
    if sigma.chart != f.chart:
        raise ChartMismatch("multivector and base volume must share a chart")
    return semidensity_to_form(Density.semidensity(f * sigma.coefficient))


class DivergenceReport(_Record):
    """Two routes to the divergence of a multivector field and their defect."""

    _fields = ("laplacian_route", "classical_route", "nilpotency_defect")

    laplacian_route: SuperFunction
    classical_route: SuperFunction
    nilpotency_defect: SuperFunction

    def __init__(
        self,
        laplacian_route: SuperFunction,
        classical_route: SuperFunction,
        nilpotency_defect: SuperFunction,
    ) -> None:
        self._set(
            laplacian_route=laplacian_route,
            classical_route=classical_route,
            nilpotency_defect=nilpotency_defect,
        )

    @property
    def defect(self) -> SuperFunction:
        return self.laplacian_route - self.classical_route

    @property
    def matches(self) -> bool:
        return self.defect.is_zero()

    @property
    def nilpotent(self) -> bool:
        return self.nilpotency_defect.is_zero()


def classical_divergence(field: SuperFunction, sigma: BaseDensity) -> SuperFunction:
    """Componentwise divergence of a multivector field against ``sigma``.

    For ``T = sum_S T_S th_S`` (ascending index sets) the components of the
    divergence are ``(div T)_S = (1/sigma) sum_{j not in S} (-1)^{#{s in S :
    s < j}} d/dx^j (sigma T_{S + j})``.
    """
    chart = field.chart
    n = _base_dimension(chart, forms=False)
    if sigma.chart != chart:
        raise ChartMismatch("field and base volume must share a chart")
    if sigma.coefficient.odd_degree():
        raise ParityViolation("the base volume must be a plain function of x")
    sigma_scalar = sigma.coefficient.body()
    if sigma_scalar.is_zero():
        raise NonInvertibleBody("the base volume must be invertible")
    sigma_inverse = sigma_scalar.invert()
    coordinate_mask = chart.mask_of_kind(OddKind.COORDINATE)
    terms: dict[int, Scalar] = {}
    for mask, coeff in field.terms.items():
        for bit in bits_of(mask & coordinate_mask):
            rest = mask & ~(1 << bit)
            sign = (rest & ((1 << bit) - 1)).bit_count() & 1
            value = (sigma_scalar * coeff).partial(
                chart.even_index(chart.even_coords[bit])
            ) * sigma_inverse
            if sign:
                value = -value
            _add_term(terms, rest, value)
    return SuperFunction(chart, terms)


def divergence_correspondence(field: SuperFunction, sigma: BaseDensity) -> DivergenceReport:
    """Compare the Laplacian of ``sigma^2`` with the classical divergence."""
    classical = classical_divergence(field, sigma)
    squared = sigma.coefficient * sigma.coefficient
    volume = VolumeForm(field.chart, squared)
    laplacian = delta_rho(volume, field)
    nilpotency = delta_rho(volume, laplacian)
    return DivergenceReport(
        laplacian_route=laplacian,
        classical_route=classical,
        nilpotency_defect=nilpotency,
    )


# -- actions on semidensities --------------------------------------------------------------


def one_form_action(components: Sequence[SuperFunction], density: Density) -> Density:
    """The shift action ``th_i -> th_i + a_i`` of an odd-valued one-form.

    The components must be odd and free of the odd coordinates (external odd
    constants supply the values); no closedness is required — the shifts form
    an abelian supergroup acting on semidensities.
    """
    chart = density.chart
    _base_dimension(chart, forms=False)
    images = _shift_images(chart, chart, components)
    return transform_density(density, Transition(chart, chart, images))


def restrict_to_lagrangian(
    density: Density, alpha: Sequence[SuperFunction]
) -> BaseDensity:
    """Restrict a semidensity to the Lagrangian graph ``th_i = alpha_i(x)``.

    The one-form must be closed (checked); the result is the top-degree
    component of the form of the shifted semidensity — the density the
    semidensity induces on that Lagrangian surface.  By the bridge's sign
    rule that component is the ``th``-free part of the shifted coefficient
    times ``(-1)^{n(n-1)/2}``.
    """
    chart = density.chart
    n = _base_dimension(chart, forms=False)
    shift = Transition.shift_one_form(chart, chart, list(alpha))
    moved = transform_density(density, shift)
    top = moved.coefficient.drop_odd_bits(chart.mask_of_kind(OddKind.COORDINATE))
    return BaseDensity(chart, top.scale((-1) ** (n * (n - 1) // 2)))
