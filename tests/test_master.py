"""Exponential residuals, quantum/classical master equations, volume constants."""

import pytest

from oddsymplectic.brackets import odd_poisson_bracket
from oddsymplectic.charts import Density, canonical_delta
from oddsymplectic.errors import NotProportional, ParityViolation
from oddsymplectic.forms import forms_partner
from oddsymplectic.laplacians import VolumeForm, delta0, delta_rho_squared
from oddsymplectic.master import (
    SemidensityMasterReport,
    classical_master_residual,
    exp_identity_residual,
    nilpotent_exponential,
    nu_constant,
    quantum_master_residual,
    semidensity_master_check,
)
from oddsymplectic.superalgebra import Chart
from helpers import gens, one


# -- finite exponentials ----------------------------------------------------------


def test_nilpotent_exponential_values():
    chart = Chart.darboux(2)
    x1, th1, th2 = gens(chart, "x1", "th1", "th2")
    assert nilpotent_exponential(th1 * th2) == one(chart) + th1 * th2
    assert nilpotent_exponential(x1 * th1) == one(chart) + x1 * th1
    g = th1 * th2 + x1 * th1
    assert nilpotent_exponential(g) == one(chart) + g
    with pytest.raises(ValueError):
        nilpotent_exponential(one(chart) + th1 * th2)


def test_exp_identity_residual_frozen():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    assert exp_identity_residual(x1 * th1 * th2) == th2
    assert exp_identity_residual(x1 * x2 * th1 * th2) == x2 * th2 - x1 * th1
    # a nonzero constant term has no finite exponential but keeps the residual
    assert exp_identity_residual(one(chart) + x1 * th1 * th2) == th2


def test_exp_identity_holds_on_the_finite_exponential():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    for g in (x1 * th1 * th2, x1 * x2 * th1 * th2, (x1 + x2 * x2) * th1 * th2):
        exponential = nilpotent_exponential(g)
        assert delta0(exponential) == exp_identity_residual(g) * exponential


def test_exp_identity_requires_even_exponent():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    with pytest.raises(ParityViolation):
        exp_identity_residual(x1 * th1)
    with pytest.raises(ParityViolation):
        exp_identity_residual(one(chart) + th1)


# -- quantum and classical master equations -----------------------------------------


def test_quantum_master_residual_frozen():
    chart = Chart.darboux(3)
    x1, x2, th1, th2, th3 = gens(chart, "x1", "x2", "th1", "th2", "th3")
    action = x1 * th1 * th2 + x2 * th2 * th3
    residual = quantum_master_residual(action)
    pieces = residual.coefficients_in_param("hbar")
    assert pieces.get(0) == -2 * x1 * th1 * th2 * th3
    assert pieces.get(1) == -4 * (th2 + th3)
    assert set(pieces) == {0, 1}
    assert classical_master_residual(action) == -2 * x1 * th1 * th2 * th3
    assert not classical_master_residual(action).is_zero()
    assert not quantum_master_residual(action).is_zero()


def test_quantum_master_solution():
    chart = Chart.darboux(3)
    x3, th1, th2 = gens(chart, "x3", "th1", "th2")
    action = x3 * th1 * th2
    assert delta0(action).is_zero()
    assert odd_poisson_bracket(action, action).is_zero()
    assert quantum_master_residual(action).is_zero()
    assert classical_master_residual(action).is_zero()


def test_classical_holds_while_quantum_fails():
    chart = Chart.darboux(3)
    x1, x3, th1, th2, hbar = gens(chart, "x1", "x3", "th1", "th2", "hbar")
    action = x3 * th1 * th2 + hbar * x1 * th1 * th2
    assert action.coefficients_in_param("hbar").get(0) == x3 * th1 * th2
    assert classical_master_residual(action).is_zero()
    assert not quantum_master_residual(action).is_zero()
    residual = quantum_master_residual(action)
    assert residual == -4 * hbar * hbar * th2


def test_master_actions_must_be_even():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    with pytest.raises(ParityViolation):
        quantum_master_residual(x1 * th1 + x1)
    with pytest.raises(ParityViolation):
        classical_master_residual(th1)


# -- semidensity master equation ------------------------------------------------------


def test_semidensity_closedness_reports():
    chart = Chart.darboux(2, externals=("nu",))
    x1, th1, th2, nu = gens(chart, "x1", "th1", "th2", "nu")

    closed = semidensity_master_check(Density.semidensity(x1 * th2))
    assert closed.closed
    assert closed.residual.coefficient.is_zero()

    witness = semidensity_master_check(Density.semidensity(one(chart) + nu * x1 * th1))
    assert not witness.closed
    assert witness.residual.coefficient == -nu

    # an odd constant times an even coordinate has no odd-coordinate factor,
    # so it cannot obstruct closedness
    quiet = semidensity_master_check(Density.semidensity(one(chart) + x1 * nu))
    assert quiet.closed


def test_semidensity_exactness_witness():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    candidate = Density.semidensity(x1 * x2 * th1 * th2)
    image = canonical_delta(candidate)
    assert image.coefficient == x2 * th2 - x1 * th1
    report = semidensity_master_check(image, candidate=candidate)
    assert isinstance(report, SemidensityMasterReport)
    assert report.closed
    assert report.exact_matches is True

    wrong = semidensity_master_check(image, candidate=Density.semidensity(x1 * th1))
    assert wrong.exact_matches is False

    plain = semidensity_master_check(image)
    assert plain.exact_matches is None


# -- the odd constant of a volume element ----------------------------------------------


def test_nu_constant_flat_volume():
    chart = Chart.darboux(1)
    report = nu_constant(VolumeForm.standard(chart))
    assert report.nu.is_zero()
    assert report.root_closed
    assert report.root == one(chart)
    assert report.zero_form_constant is not None
    assert report.zero_form_constant.is_zero()


def test_nu_constant_reads_the_form_constant():
    chart = Chart.darboux(2)
    th1, th2 = gens(chart, "th1", "th2")
    root = one(chart) + 3 * th1 * th2
    report = nu_constant(VolumeForm(chart, root * root))
    assert report.root == root
    assert report.root_closed
    assert report.zero_form_constant == 3 * one(forms_partner(chart))


def test_nu_constant_external_witness():
    chart = Chart.darboux(1, externals=("eps1",))
    x1, th1, eps1 = gens(chart, "x1", "th1", "eps1")
    root = one(chart) - x1 * th1 * eps1
    volume = VolumeForm(chart, root * root)
    report = nu_constant(volume)
    assert report.nu == -eps1
    assert not report.root_closed
    assert report.zero_form_constant is None
    # the weighted Laplacian still squares to zero in this case
    for sample in (x1, th1, x1 * th1 + x1):
        assert delta_rho_squared(volume, sample).is_zero()


def test_nu_constant_error_branch_reports_hamiltonian():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    root = one(chart) + x1 * x2 * th1 * th2
    volume = VolumeForm(chart, root * root)
    with pytest.raises(NotProportional) as excinfo:
        nu_constant(volume)
    hamiltonian = excinfo.value.hamiltonian
    assert hamiltonian == x2 * th2 - x1 * th1
    # the offending Hamiltonian generates the square of the weighted Laplacian
    for sample in (x1, th1, x1 * th2 + x2):
        assert odd_poisson_bracket(hamiltonian, sample) == delta_rho_squared(
            volume, sample
        )
    assert delta_rho_squared(volume, x1) == x1


def test_nu_constant_without_bridge_names():
    chart = Chart.darboux(1, odd_prefix="et")
    report = nu_constant(VolumeForm.standard(chart))
    assert report.root_closed
    assert report.zero_form_constant is None
