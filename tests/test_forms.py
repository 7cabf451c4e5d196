"""Form/semidensity bridge, de Rham calculus, divergences, shifts, restriction."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from oddsymplectic import sampling
from oddsymplectic.charts import (
    Density,
    Transition,
    canonical_delta,
    exponentiate_hamiltonian,
    is_symplectomorphism,
    lie_derivative_density,
    transform_density,
)
from oddsymplectic.errors import (
    ChartMismatch,
    InvalidTransition,
    NonInvertibleBody,
    NotClosed,
    ParityViolation,
)
from oddsymplectic.forms import (
    BaseDensity,
    classical_divergence,
    darboux_partner,
    de_rham,
    divergence_correspondence,
    form_degree_component,
    form_to_semidensity,
    forms_partner,
    hodge,
    one_form_action,
    restrict_to_lagrangian,
    semidensity_to_form,
)
from oddsymplectic.superalgebra import Chart, OddKind, SuperFunction, bits_of
from helpers import gens, one


def zero(chart):
    return SuperFunction.zero(chart)


def xi_monomial(chart, indices):
    acc = one(chart)
    for i in indices:
        acc = acc * SuperFunction.generator(chart, f"xi{i}")
    return acc


def th_monomial(chart, indices):
    acc = one(chart)
    for i in indices:
        acc = acc * SuperFunction.generator(chart, f"th{i}")
    return acc


# -- chart partners ----------------------------------------------------------------


def test_partner_charts_mirror_each_other():
    fchart = Chart.forms(2)
    dchart = darboux_partner(fchart)
    assert dchart.odd_coords == ("th1", "th2")
    assert dchart.fiber_odds == ()
    assert forms_partner(dchart) == fchart
    with pytest.raises(ChartMismatch):
        darboux_partner(Chart.darboux(2))
    with pytest.raises(ChartMismatch):
        forms_partner(Chart.forms(2))


def test_partners_preserve_externals_and_name():
    fchart = Chart.forms(1, name="W", externals=("nu",))
    dchart = darboux_partner(fchart)
    assert dchart.name == "W"
    assert dchart.external_odds == ("nu",)
    assert forms_partner(dchart) == fchart


# -- pinned bridge images ----------------------------------------------------------


def test_bridge_images_line_one():
    fchart = Chart.forms(1)
    dchart = darboux_partner(fchart)
    (xi1,) = gens(fchart, "xi1")
    (th1,) = gens(dchart, "th1")
    assert form_to_semidensity(one(fchart)).coefficient == th1
    assert form_to_semidensity(xi1).coefficient == one(dchart)
    assert semidensity_to_form(Density.semidensity(th1)) == one(fchart)
    assert semidensity_to_form(Density.semidensity(one(dchart))) == xi1


def test_bridge_images_line_two():
    fchart = Chart.forms(2)
    dchart = darboux_partner(fchart)
    x1, x2, xi1, xi2 = gens(fchart, "x1", "x2", "xi1", "xi2")
    y1, y2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")

    # a function goes to the full odd monomial times itself
    f = one(fchart) + x1 * x2
    assert form_to_semidensity(f).coefficient == (one(dchart) + y1 * y2) * th1 * th2

    # a one-form picks up the complementary odd generator with a sign
    omega = x1 * xi1 + x2 * xi2
    assert form_to_semidensity(omega).coefficient == y1 * th2 - y2 * th1

    # the top form goes to minus its coefficient
    assert form_to_semidensity(x2 * xi1 * xi2).coefficient == -y2

    # and the other direction is pinned by inversion
    assert semidensity_to_form(Density.semidensity(one(dchart))) == -xi1 * xi2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bridge_round_trips_on_monomials(n):
    fchart = Chart.forms(n)
    dchart = darboux_partner(fchart)
    evens_f = gens(fchart, *fchart.even_coords)
    evens_d = gens(dchart, *dchart.even_coords)
    coeff_f = one(fchart) + evens_f[0] + evens_f[0] * evens_f[-1]
    coeff_d = one(dchart) + evens_d[0] + evens_d[0] * evens_d[-1]
    for r in range(n + 1):
        for indices in itertools.combinations(range(1, n + 1), r):
            omega = coeff_f * xi_monomial(fchart, indices)
            back = semidensity_to_form(form_to_semidensity(omega))
            assert back == omega
            s = Density.semidensity(coeff_d * th_monomial(dchart, indices))
            assert form_to_semidensity(semidensity_to_form(s)) == s


# -- the kernel oracle ------------------------------------------------------------
#
# The bridge is defined as an odd Fourier transform: a Berezin integral against
# ``exp(C sum_k xi^k th_k)`` on a chart carrying both odd blocks.  The library
# computes it by a sign rule on monomials; the kernel construction below is the
# independent oracle that rule is checked against.


def _doubled(chart):
    """The Darboux chart ``chart`` with the fiber block ``xi1..xin`` added."""
    n = len(chart.even_coords)
    return Chart(
        name=chart.name,
        even_coords=chart.even_coords,
        odd_coords=chart.odd_coords,
        fiber_odds=tuple(f"xi{i}" for i in range(1, n + 1)),
        external_odds=chart.external_odds,
        params=chart.params,
    )


def _kernel(doubled, n, sign):
    """``exp(sign * sum_k xi^k th_k)`` as a finite product of binomials."""
    acc = one(doubled)
    for k in range(1, n + 1):
        xi, th = gens(doubled, f"xi{k}", f"th{k}")
        acc = acc * (one(doubled) + (xi * th).scale(sign))
    return acc


def kernel_form_to_semidensity(omega):
    dchart = darboux_partner(omega.chart)
    n = len(dchart.odd_coords)
    doubled = _doubled(dchart)
    c = 1 if n % 2 else -1  # (-1)^(n+1)
    prefactor = -1 if (n * (n - 1) // 2) % 2 else 1
    integrand = _kernel(doubled, n, c) * omega.retarget(doubled)
    integrated = integrand.berezin_integral(f"xi{k}" for k in range(1, n + 1))
    return Density.semidensity(integrated.scale(prefactor).retarget(dchart))


def kernel_semidensity_to_form(density):
    dchart = density.chart
    fchart = forms_partner(dchart)
    n = len(fchart.fiber_odds)
    doubled = _doubled(dchart)
    c = -1 if n % 2 else 1  # (-1)^n
    integrand = _kernel(doubled, n, c) * density.coefficient.retarget(doubled)
    integrated = integrand.berezin_integral(f"th{k}" for k in range(1, n + 1))
    return integrated.retarget(fchart)


def kernel_restrict_to_lagrangian(density, alpha):
    chart = density.chart
    n = len(chart.even_coords)
    moved = transform_density(density, Transition.shift_one_form(chart, chart, list(alpha)))
    form = kernel_semidensity_to_form(moved)
    top = form.berezin_integral(f"xi{k}" for k in range(1, n + 1))
    return top.retarget(chart)


def odd_monomials(chart):
    """Every product of a subset of the chart's odd generators, with its names."""
    names = chart.odds
    for mask in range(1 << len(names)):
        picked = [names[b] for b in bits_of(mask)]
        acc = one(chart)
        for name in picked:
            acc = acc * SuperFunction.generator(chart, name)
        yield picked, acc


@pytest.mark.parametrize("externals", [(), ("eps1", "eps2")])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bridge_matches_kernel_oracle_on_every_monomial(n, externals):
    fchart = Chart.forms(n, externals=externals)
    dchart = darboux_partner(fchart)
    coeff_f = one(fchart) + gens(fchart, "x1")[0].scale(2)
    coeff_d = one(dchart) + gens(dchart, "x1")[0].scale(2)
    for picked, monomial in odd_monomials(fchart):
        omega = coeff_f * monomial
        assert form_to_semidensity(omega) == kernel_form_to_semidensity(omega), picked
    for picked, monomial in odd_monomials(dchart):
        s = Density.semidensity(coeff_d * monomial)
        assert semidensity_to_form(s) == kernel_semidensity_to_form(s), picked


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bridge_matches_kernel_oracle_on_rational_forms(n):
    fchart = Chart.forms(n, externals=("eps1",))
    dchart = darboux_partner(fchart)
    rng = Random(100 + n)
    for chart in (fchart, dchart):
        x = gens(chart, *chart.even_coords)
        rationals = [
            (one(chart) + x[0] * x[0]).invert(),
            (one(chart) + x[-1]).invert() * x[0],
        ]
        for _ in range(3):
            f = zero(chart)
            for r in rationals:
                f = f + sampling.random_superfunction(rng, chart) * r
            if chart is fchart:
                assert form_to_semidensity(f) == kernel_form_to_semidensity(f)
            else:
                s = Density.semidensity(f)
                assert semidensity_to_form(s) == kernel_semidensity_to_form(s)


def test_restriction_matches_kernel_oracle_on_random_closed_forms():
    nonzero = total = 0
    for n in range(1, 6):
        chart = Chart.darboux(n, externals=("nu1", "nu2"))
        rng = Random(200 + n)
        for _ in range(4):
            potential = zero(chart)
            for nu in gens(chart, *chart.external_odds):
                potential = potential + nu * sampling.random_even_polynomial(rng, chart)
            alpha = [potential.derivative(x) for x in chart.even_coords]  # closed: exact
            # a body and a term linear in one th keep most tops nonzero
            th = SuperFunction.generator(chart, rng.choice(chart.odd_coords))
            body = sampling.random_even_polynomial(rng, chart)
            coefficient = sampling.random_superfunction(rng, chart) + body * (one(chart) + th)
            s = Density.semidensity(coefficient)
            top = restrict_to_lagrangian(s, alpha).coefficient
            assert top == kernel_restrict_to_lagrangian(s, alpha)
            total += 1
            nonzero += not top.is_zero()
    assert 2 * nonzero >= total


def test_bridge_makes_no_products_substitutions_or_integrals(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(SuperFunction, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(SuperFunction, name, wrapper)

    fchart = Chart.forms(3, externals=("eps1",))
    dchart = darboux_partner(fchart)
    omega = sampling.random_superfunction(Random(7), fchart)
    s = sampling.random_semidensity(Random(8), dchart)
    for name in ("__mul__", "substitute", "berezin_integral"):
        counting(name)
    form_to_semidensity(omega)
    semidensity_to_form(s)
    assert calls == []


def test_bridge_rejects_wrong_weight():
    dchart = Chart.darboux(1)
    with pytest.raises(ValueError):
        semidensity_to_form(Density.volume(one(dchart)))


# -- de Rham differential ----------------------------------------------------------


def test_de_rham_degree_and_square():
    fchart = Chart.forms(2)
    x1, x2, xi1, xi2 = gens(fchart, "x1", "x2", "xi1", "xi2")
    omega = x1 * x1 * x2 + x2 * xi1 + x1 * x2 * xi1 * xi2
    d_omega = de_rham(omega)
    assert d_omega == (2 * x1 * x2) * xi1 + (x1 * x1) * xi2 + xi2 * xi1
    assert de_rham(d_omega).is_zero()
    assert form_degree_component(d_omega, 1) == (2 * x1 * x2) * xi1 + (x1 * x1) * xi2
    assert form_degree_component(d_omega, 2) == xi2 * xi1


def test_de_rham_matches_laplacian_through_bridge():
    for n in (1, 2):
        fchart = Chart.forms(n)
        evens = gens(fchart, *fchart.even_coords)
        samples = [
            one(fchart) + evens[0] * evens[0],
            evens[-1] * xi_monomial(fchart, (1,)),
            evens[0] * xi_monomial(fchart, tuple(range(1, n + 1))),
        ]
        for omega in samples:
            lhs = canonical_delta(form_to_semidensity(omega))
            rhs = form_to_semidensity(de_rham(omega))
            assert lhs == rhs


@pytest.mark.parametrize("n", [4, 5])
def test_bridge_on_random_forms_past_dimension_three(n):
    # n = 4 and 5 are the dimensions past n = 1 where the inverse bridge's
    # sign (-1)^(n(n-1)/2) is +1, against -1 at n = 2 and 3.
    assert n <= sampling.MAX_DIMENSION
    fchart = Chart.forms(n)
    dchart = darboux_partner(fchart)
    rng = Random(n)
    for _ in range(10):
        omega = sampling.random_superfunction(rng, fchart)
        assert semidensity_to_form(form_to_semidensity(omega)) == omega
        s = sampling.random_semidensity(rng, dchart)
        assert form_to_semidensity(semidensity_to_form(s)) == s
        lhs = canonical_delta(form_to_semidensity(omega))
        assert lhs == form_to_semidensity(de_rham(omega))


def test_de_rham_commutation_exhaustive_low_degree():
    fchart = Chart.forms(2)
    x1, x2 = gens(fchart, "x1", "x2")
    coefficients = [one(fchart), x1, x2, x1 * x2, x1 * x1]
    for coeff in coefficients:
        for r in range(3):
            for indices in itertools.combinations((1, 2), r):
                omega = coeff * xi_monomial(fchart, indices)
                assert canonical_delta(
                    form_to_semidensity(omega)
                ) == form_to_semidensity(de_rham(omega))


# -- multivector fields against a base volume ---------------------------------------


def test_hodge_pinned_images():
    dchart = Chart.darboux(2)
    fchart = forms_partner(dchart)
    x1, th1, th2 = gens(dchart, "x1", "th1", "th2")
    xi1, xi2 = gens(fchart, "xi1", "xi2")
    sigma = BaseDensity.constant(dchart)
    assert hodge(th1 * th2, sigma) == one(fchart)
    assert hodge(one(dchart), sigma) == -xi1 * xi2
    assert hodge(x1 * th1, sigma) == -(gens(fchart, "x1")[0] * xi2)


def test_hodge_round_trip_with_volume():
    dchart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")
    sigma = BaseDensity(dchart, one(dchart) + x1 * x1)
    field = x2 + x1 * th1 + th1 * th2
    back = form_to_semidensity(hodge(field, sigma)).coefficient
    assert back == field * sigma.coefficient
    assert back * sigma.coefficient.invert() == field


def test_base_density_guards():
    dchart = Chart.darboux(1)
    (th1,) = gens(dchart, "th1")
    with pytest.raises(ParityViolation):
        BaseDensity(dchart, th1)
    with pytest.raises(ChartMismatch):
        BaseDensity(dchart, one(Chart.darboux(2)))


def test_divergence_frozen_values():
    dchart = Chart.darboux(1)
    x1, th1 = gens(dchart, "x1", "th1")
    flat = BaseDensity.constant(dchart)
    assert classical_divergence(th1, flat).is_zero()
    assert classical_divergence(x1 * th1, flat) == one(dchart)
    report = divergence_correspondence(th1, BaseDensity(dchart, x1))
    assert report.classical_route == x1.invert()
    assert report.matches
    assert report.nilpotent


def test_divergence_routes_agree_on_mixed_fields():
    dchart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")
    fields = [
        one(dchart) + x1 * th1 + x1 * x2 * th1 * th2,
        x2 * th1 + x1 * th2,
        th1 * th2 + x1 * x1 * th1,
    ]
    volumes = [
        BaseDensity.constant(dchart),
        BaseDensity(dchart, x1),
        BaseDensity(dchart, one(dchart) + x1 * x1),
    ]
    for field in fields:
        for sigma in volumes:
            report = divergence_correspondence(field, sigma)
            assert report.matches
            assert report.nilpotent


def test_divergence_rejects_bad_volumes():
    dchart = Chart.darboux(1)
    x1, th1 = gens(dchart, "x1", "th1")
    with pytest.raises(NonInvertibleBody):
        classical_divergence(th1, BaseDensity(dchart, zero(dchart)))


# -- interior products and Cartan calculus ------------------------------------------


def test_multiplication_matches_fiber_derivative():
    fchart = Chart.forms(2)
    dchart = darboux_partner(fchart)
    x1 = gens(fchart, "x1")[0]
    coeff = one(fchart) + x1
    for i in (1, 2):
        th_i = SuperFunction.generator(dchart, f"th{i}")
        for r in range(3):
            for indices in itertools.combinations((1, 2), r):
                omega = coeff * xi_monomial(fchart, indices)
                lhs = th_i * form_to_semidensity(omega).coefficient
                rhs = form_to_semidensity(omega.partial_odd(f"xi{i}")).coefficient
                assert lhs == rhs


def test_composite_multiplication_matches_ordered_derivatives():
    fchart = Chart.forms(2)
    dchart = darboux_partner(fchart)
    th1, th2 = gens(dchart, "th1", "th2")
    x1, xi1, xi2 = gens(fchart, "x1", "xi1", "xi2")
    omega = (one(fchart) + x1) * xi1 * xi2
    lhs = th1 * th2 * form_to_semidensity(omega).coefficient
    rhs = form_to_semidensity(
        omega.partial_odd("xi2").partial_odd("xi1")
    ).coefficient
    assert lhs == rhs


def interior(field, omega):
    """Interior product of a multivector field with a form (test-side oracle)."""
    out = zero(omega.chart)
    coordinate = field.chart.mask_of_kind(OddKind.COORDINATE)
    for mask, coeff in field.terms.items():
        if mask & ~coordinate:
            raise AssertionError("test fields must be free of external odd constants")
        piece = omega
        for bit in sorted(bits_of(mask), reverse=True):
            piece = piece.partial_odd(f"xi{bit + 1}")
        out = out + piece.scale(coeff)
    return out


def test_cartan_identity_matches_lie_derivative():
    dchart = Chart.darboux(2)
    fchart = forms_partner(dchart)
    x1, x2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")
    y1, y2, xi1, xi2 = gens(fchart, "x1", "x2", "xi1", "xi2")
    forms = [
        one(fchart) + y1 * y2,
        y2 * xi1,
        y1 * xi1 * xi2 + xi2,
        one(fchart) + y1 * xi1 + y2 * y2 * xi1 * xi2,
    ]
    odd_fields = [th1, x2 * th1 + x1 * x1 * th2]
    even_fields = [th1 * th2, x1 * th1 * th2]
    for omega in forms:
        for field in odd_fields:
            lie = semidensity_to_form(
                lie_derivative_density(field, form_to_semidensity(omega))
            )
            cartan = de_rham(interior(field, omega)) + interior(field, de_rham(omega))
            assert lie == cartan
        for field in even_fields:
            lie = semidensity_to_form(
                lie_derivative_density(field, form_to_semidensity(omega))
            )
            cartan = de_rham(interior(field, omega)) - interior(field, de_rham(omega))
            assert lie == cartan


def test_lie_along_unit_field_is_base_derivative():
    dchart = Chart.darboux(1)
    x1, th1 = gens(dchart, "x1", "th1")
    s = Density.semidensity(x1 * x1 * x1 + x1 * th1)
    moved = lie_derivative_density(th1, s)
    assert moved.coefficient == s.coefficient.partial_even("x1")


# -- the shift action of odd-valued one-forms ----------------------------------------


def test_one_form_action_identity_and_group_law():
    dchart = Chart.darboux(2, externals=("nu1", "nu2"))
    x1, th1, th2, nu1, nu2 = gens(dchart, "x1", "th1", "th2", "nu1", "nu2")
    s = Density.semidensity(one(dchart) + x1 * th1 + th1 * th2)
    zeros = [zero(dchart), zero(dchart)]
    assert one_form_action(zeros, s) == s
    a = [nu1, nu2 * x1]
    b = [nu2, zero(dchart)]
    combined = [a[0] + b[0], a[1] + b[1]]
    assert one_form_action(a, one_form_action(b, s)) == one_form_action(combined, s)
    assert one_form_action(b, one_form_action(a, s)) == one_form_action(combined, s)


def test_one_form_action_is_exterior_multiplication():
    dchart = Chart.darboux(2, externals=("nu1", "nu2"))
    fchart = forms_partner(dchart)
    x1, th1, th2, nu1, nu2 = gens(dchart, "x1", "th1", "th2", "nu1", "nu2")
    y1, xi1, xi2, mu1, mu2 = gens(fchart, "x1", "xi1", "xi2", "nu1", "nu2")
    components = [nu1, nu2 * x1]
    wedge = mu1 * xi1 + mu2 * y1 * xi2
    exponential = one(fchart) + wedge + (wedge * wedge).scale(Fraction(1, 2))
    samples = [
        Density.semidensity(one(dchart) + x1 * th1 + th1 * th2),
        Density.semidensity(th1 * th2),
        Density.semidensity(one(dchart)),
    ]
    for s in samples:
        lhs = semidensity_to_form(one_form_action(components, s))
        rhs = exponential * semidensity_to_form(s)
        assert lhs == rhs


def test_one_form_action_allows_non_closed_components():
    dchart = Chart.darboux(2, externals=("nu",))
    x1, x2, th1, nu = gens(dchart, "x1", "x2", "th1", "nu")
    s = Density.semidensity(one(dchart) + x1 * th1)
    components = [nu * x2, zero(dchart)]
    moved = one_form_action(components, s)
    assert moved.coefficient == s.coefficient + x1 * nu * x2
    with pytest.raises(NotClosed):
        Transition.shift_one_form(dchart, dchart, components)


def test_one_form_action_guards():
    dchart = Chart.darboux(2, externals=("nu",))
    x1, th1, nu = gens(dchart, "x1", "th1", "nu")
    s = Density.semidensity(one(dchart))
    with pytest.raises(InvalidTransition):
        one_form_action([nu], s)
    with pytest.raises(ParityViolation):
        one_form_action([x1, zero(dchart)], s)
    with pytest.raises(InvalidTransition):
        one_form_action([th1, zero(dchart)], s)


def test_shift_entry_points_refuse_the_same_components():
    # The action on semidensities and the canonical transition check their
    # components alike: an even one and one that involves the th's fail.
    dchart = Chart.darboux(2, externals=("nu",))
    x1, th1, th2, nu = gens(dchart, "x1", "th1", "th2", "nu")
    s = Density.semidensity(one(dchart))
    for bad, error in ((x1, ParityViolation), (nu * th1 * th2 + th1, InvalidTransition)):
        components = [bad, zero(dchart)]
        with pytest.raises(error):
            one_form_action(components, s)
        with pytest.raises(error):
            Transition.shift_one_form(dchart, dchart, components)


# -- restriction to Lagrangian graphs -------------------------------------------------


def test_restriction_to_zero_section():
    dchart = Chart.darboux(1)
    x1, th1 = gens(dchart, "x1", "th1")
    s = Density.semidensity(one(dchart) + x1 + x1 * th1)
    restricted = restrict_to_lagrangian(s, [zero(dchart)])
    assert restricted.coefficient == one(dchart) + x1

    dchart2 = Chart.darboux(2)
    y1, y2, th1, th2 = gens(dchart2, "x1", "x2", "th1", "th2")
    s2 = Density.semidensity(one(dchart2) + y1 + y2 * th1 + th1 * th2.scale(3))
    restricted2 = restrict_to_lagrangian(s2, [zero(dchart2), zero(dchart2)])
    assert restricted2.coefficient == -(one(dchart2) + y1)


def test_restriction_evaluates_on_the_graph():
    dchart = Chart.darboux(1, externals=("nu",))
    x1, th1, nu = gens(dchart, "x1", "th1", "nu")
    s = Density.semidensity(x1 * x1 + (one(dchart) + x1) * th1)
    alpha = [nu * (one(dchart) + x1)]
    restricted = restrict_to_lagrangian(s, alpha)
    expected = x1 * x1 + (one(dchart) + x1) * nu * (one(dchart) + x1)
    assert restricted.coefficient == expected

    dchart2 = Chart.darboux(2, externals=("nu",))
    y1, y2, t1, t2, mu = gens(dchart2, "x1", "x2", "th1", "th2", "nu")
    s2 = Density.semidensity(one(dchart2) + y1 * t1 + t1 * t2)
    alpha2 = [mu * y2, mu * y1]
    restricted2 = restrict_to_lagrangian(s2, alpha2)
    assert restricted2.coefficient == -(one(dchart2) + y1 * y2 * mu)


def test_restriction_requires_closed_one_form():
    dchart = Chart.darboux(2, externals=("nu",))
    y2, nu = gens(dchart, "x2", "nu")
    s = Density.semidensity(one(dchart))
    with pytest.raises(NotClosed):
        restrict_to_lagrangian(s, [nu * y2, zero(dchart)])


def test_restriction_invariant_under_quadratic_flows():
    dchart = Chart.darboux(2, externals=("nu",))
    x1, x2, th1, th2, nu = gens(dchart, "x1", "x2", "th1", "th2", "nu")
    q = nu * x1 * th1 * th2
    flow = exponentiate_hamiltonian(q, 1)
    assert is_symplectomorphism(flow)
    s = Density.semidensity(one(dchart) + x2 * th1 + x1 * x2 * th1 * th2)
    moved = transform_density(s, flow)
    zeros = [zero(dchart), zero(dchart)]
    assert restrict_to_lagrangian(moved, zeros).coefficient == restrict_to_lagrangian(
        s, zeros
    ).coefficient


def test_restriction_invariant_under_cubic_flows():
    dchart = Chart.darboux(3)
    x1, x2, x3, th1, th2, th3 = gens(dchart, "x1", "x2", "x3", "th1", "th2", "th3")
    q = x2 * th1 * th2 * th3
    flow = exponentiate_hamiltonian(q, 1)
    assert is_symplectomorphism(flow)
    s = Density.semidensity(
        one(dchart) + x1 * th1 + x3 * th1 * th2 + th1 * th2 * th3.scale(2)
    )
    moved = transform_density(s, flow)
    zeros = [zero(dchart)] * 3
    assert restrict_to_lagrangian(moved, zeros).coefficient == restrict_to_lagrangian(
        s, zeros
    ).coefficient


def test_top_coefficient_survives_shifts_exactly():
    dchart = Chart.darboux(2, externals=("nu",))
    x1, x2, th1, th2, nu = gens(dchart, "x1", "x2", "th1", "th2", "nu")
    s = Density.semidensity(one(dchart) + x2 * th1 + x1 * x1 * th1 * th2)
    for components in ([nu * x2, nu * x1], [nu * x2, zero(dchart)]):
        moved = one_form_action(components, s)
        lhs = form_degree_component(semidensity_to_form(moved), 0)
        rhs = form_degree_component(semidensity_to_form(s), 0)
        assert lhs == rhs


def test_top_coefficient_sign_flips_under_swap():
    dchart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")
    swap = Transition(
        dchart,
        dchart,
        {"x1": x2, "x2": x1, "th1": th2, "th2": th1},
    )
    assert is_symplectomorphism(swap)
    s = Density.semidensity(one(dchart) + x1 * th1 * th2)
    moved = transform_density(s, swap)
    lhs = form_degree_component(semidensity_to_form(moved), 0)
    rhs = form_degree_component(semidensity_to_form(s), 0)
    fchart = forms_partner(dchart)
    y1, y2 = gens(fchart, "x1", "x2")
    assert rhs == y1
    assert lhs == -y2
