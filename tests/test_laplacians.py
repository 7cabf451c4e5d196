"""Odd Laplacians: frozen values, product/bracket identities, divergences."""

from fractions import Fraction
from random import Random

import pytest

from oddsymplectic import sampling
from oddsymplectic.brackets import PoissonStructure, odd_poisson_bracket
from oddsymplectic.derived import CotangentStructure
from oddsymplectic.errors import ChartMismatch, NonInvertibleBody, ParityViolation
from oddsymplectic.expressions import parse_expression
from oddsymplectic.laplacians import (
    VolumeForm,
    delta0,
    delta_rho,
    delta_rho_squared,
    divergence,
    log_derivative_bracket,
    modular_hamiltonian,
    modular_operator,
)
from oddsymplectic.superalgebra import Chart, SuperFunction
from helpers import gens, mixed


def test_delta0_frozen_values(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    assert delta0(x1 * th1) == SuperFunction.one(c2)
    assert delta0(x1 * x1 * th1 * th2) == (x1 * th2).scale(2)
    assert delta0(x1 * x1).is_zero()
    assert delta0(th1 * th2).is_zero()


def test_delta0_squares_to_zero(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    samples = [
        x1 * th1,
        x1 * x2 * th1 * th2,
        (x1 + x2 * x2) * th2 + x1 * th1,
        th1 * th2 * x2,
        SuperFunction.one(c2) / (x1 + 1) * th1 * th2,
    ]
    for f in samples:
        assert delta0(delta0(f)).is_zero()


def test_delta_rho_with_rational_volume():
    c1 = Chart.darboux(1)
    x1, th1 = gens(c1, "x1", "th1")
    rho = VolumeForm(c1, x1 * x1)
    # Delta_rho th_1 = (1/2) * (2/x^1) = 1/x^1
    assert delta_rho(rho, th1) == SuperFunction.one(c1) / x1


def test_delta_rho_soul_volume_frozen_sign(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    rho = VolumeForm(c2, SuperFunction.one(c2) + th1 * th2)
    assert delta_rho(rho, x1) == th2.scale(Fraction(1, 2))


def test_volume_form_validation(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    with pytest.raises(ParityViolation):
        VolumeForm(c2, th1)
    with pytest.raises(NonInvertibleBody):
        VolumeForm(c2, th1 * th2)


def test_product_rule(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho = VolumeForm(c2, SuperFunction.one(c2) + x1 * x2 * th1 * th2)
    samples = [
        (x1, 0),
        (th1, 1),
        (x1 * th1, 1),
        (th1 * th2, 0),
        (x2 * x2 + x1, 0),
        (x1 * x2 * th2 + th1, 1),
        (x1 * th1 * th2, 0),
    ]
    for f, pf in samples:
        assert f.parity() in (pf, None) or f.is_zero()
        for g, _ in samples:
            lhs = delta_rho(rho, f * g)
            sign = -1 if pf else 1
            rhs = (
                delta_rho(rho, f) * g
                + odd_poisson_bracket(f, g).scale(sign)
                + (f * delta_rho(rho, g)).scale(sign)
            )
            assert lhs == rhs, (f, g)


def test_bracket_preservation(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho = VolumeForm(c2, (SuperFunction.one(c2) + x1 * x2 * th1 * th2) ** 2)
    samples = [x1, th1, x1 * th1, th1 * th2, x2 * x1, x2 * th1 + th2]
    for f in samples:
        pf = f.parity_or_raise()
        for g in samples:
            lhs = delta_rho(rho, odd_poisson_bracket(f, g))
            sign = -1 if (pf + 1) & 1 else 1
            rhs = odd_poisson_bracket(delta_rho(rho, f), g) + odd_poisson_bracket(
                f, delta_rho(rho, g)
            ).scale(sign)
            assert lhs == rhs, (f, g)


def test_divergence_matches_laplacian(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    one = SuperFunction.one(c2)
    for coefficient in (one, (x1 * x1 + 1).invert() * (one + x2 * th1 * th2)):
        rho = VolumeForm(c2, coefficient)
        for f in (x1 * th1, x2 * x2 * th1 + th2):  # odd
            assert divergence(rho, f) == delta_rho(rho, f).scale(-2)
        for g in (th1 * th2, x1 * x2 + x1 * th1 * th2):  # even
            assert divergence(rho, g) == delta_rho(rho, g).scale(2)
        with pytest.raises(ParityViolation):
            divergence(rho, x1 + th1)


def _delta_change(volume, factor, f):
    """``Delta_{g rho} f - Delta_rho f``, from the two Laplacians: an oracle."""
    return delta_rho(volume.rescale(factor), f) - delta_rho(volume, f)


def test_delta_change_is_log_bracket(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho = VolumeForm(c2, SuperFunction.one(c2) + th1 * th2)
    factor = (x1 * x1 + 1) * (SuperFunction.one(c2) + x2 * th1 * th2)
    for f in (x1, th1, x1 * th2, th1 * th2, x2 * x2):
        assert _delta_change(rho, factor, f) == log_derivative_bracket(factor, f).scale(
            Fraction(1, 2)
        )


def test_modular_hamiltonian_frozen(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    one = VolumeForm.standard(c2)
    g = SuperFunction.one(c2) + x1 * x2 * th1 * th2
    other = VolumeForm(c2, g)
    h = modular_hamiltonian(one, other)
    assert h == (x2 * th2 - x1 * th1).scale(Fraction(1, 2))


def test_squared_laplacian_is_hamiltonian_of_modular(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho_c = (SuperFunction.one(c2) + x1 * x2 * th1 * th2) ** 2
    rho = VolumeForm(c2, rho_c)
    # H = Delta_0(sqrt rho) / sqrt rho
    root = rho.sqrt()
    h = root.invert() * delta0(root)
    assert h == x2 * th2 - x1 * th1
    assert delta_rho_squared(rho, x1) == x1
    for f in (x1, x2, th1, th2, x1 * th2, th1 * th2):
        assert delta_rho_squared(rho, f) == odd_poisson_bracket(h, f)


def test_cocycle_property_between_two_volumes(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho = VolumeForm(c2, (x1 * x1 + 1) * (SuperFunction.one(c2) + th1 * th2))
    factor = (SuperFunction.one(c2) + x1 * x2 * th1 * th2) ** 2
    other = rho.rescale(factor)
    h = modular_hamiltonian(rho, other)
    for f in (x1, th1, x1 * th2, th1 * th2 * x2):
        lhs = delta_rho_squared(other, f) - delta_rho_squared(rho, f)
        assert lhs == odd_poisson_bracket(h, f)


def test_modular_operator_reproduces_delta_rho(c2):
    struct = PoissonStructure.darboux_odd(c2)
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    rho_c = (x1 * x1 + 1) * (SuperFunction.one(c2) + x2 * th1 * th2)
    rho = VolumeForm(c2, rho_c)
    for f in (x1, th1, x1 * th1, th1 * th2, x1 * x2 + x2, x1 * th1 * th2):
        assert modular_operator(struct, rho_c, f) == delta_rho(rho, f)


def test_even_modular_field_is_first_order():
    base = Chart(name="M", even_coords=("z1",), odd_coords=())
    cot = CotangentStructure(base=base)
    chart = cot.chart
    z, p = gens(chart, "z1", "pz1")
    rho = (z * z + 1) * (p * p + 1)
    # Liouville: with rho = 1 every Hamiltonian field is divergence free
    one = SuperFunction.one(chart)
    for f in (z, p, z * p, z * z + p):
        assert modular_operator(cot.structure, one, f).is_zero()
    # first order: derivation property on products
    samples = [z, p, z * p + z, p * p]
    for f in samples:
        for g in samples:
            lhs = modular_operator(cot.structure, rho, f * g)
            rhs = modular_operator(cot.structure, rho, f) * g + f * modular_operator(
                cot.structure, rho, g
            )
            assert lhs == rhs
    # and it is half the classical bracket with log rho
    rinv = rho.invert()
    for f in samples:
        expected = (
            (rinv * rho.partial_even("pz1")) * f.partial_even("z1")
            - (rinv * rho.partial_even("z1")) * f.partial_even("pz1")
        ).scale(Fraction(1, 2))
        assert modular_operator(cot.structure, rho, f) == expected


def test_delta_rho_squares_to_zero_on_a_gaussian_volume(c2):
    volume = VolumeForm(c2, parse_expression("3*I/(1 + x1^2 + x2^3)", c2))
    f = parse_expression("x1*x2*th1*th2", c2)
    assert delta_rho(volume, delta_rho(volume, f)).is_zero()


# -- the per-volume logarithmic derivative ----------------------------------------


def _rational_volumes(n, seed):
    """A real volume with a soul (n >= 2) and two Gaussian ones, seeded."""
    rng = Random(seed)
    chart = Chart.darboux(n)
    xs, ths = chart.even_coords, chart.odd_coords
    den = "1 + " + " + ".join(f"{rng.randint(1, 3)}*{x}^2" for x in xs)
    c, d = rng.randint(1, 5), rng.randint(1, 5)
    real = f"{c}/({den})"
    if n >= 2:
        real += f" + {rng.randint(1, 3)}*{xs[-1]}*{ths[0]}*{ths[-1]}"
    texts = (real, f"{c}*I/({den})", f"({c} + {d}*I*x1)/({den})")
    return chart, [VolumeForm(chart, parse_expression(t, chart)) for t in texts]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_laplacian_matches_the_modular_operator(n):
    chart, volumes = _rational_volumes(n, seed=10 + n)
    structure = PoissonStructure.darboux_odd(chart)
    rng = Random(n)
    samples = [sampling.random_superfunction(rng, chart, parity=p) for p in (1, 0, 1, 1)]
    for volume in volumes:
        expected = [modular_operator(structure, volume.coefficient, f) for f in samples]
        first = [delta_rho(volume, f) for f in samples]
        repeated = [delta_rho(volume, f) for f in samples]
        fresh_volume = VolumeForm(chart, volume.coefficient)
        fresh = [delta_rho(fresh_volume, f) for f in samples]
        assert first == expected
        assert repeated == expected
        assert fresh == expected


def test_volume_form_fields_equality_and_hash_ignore_the_cache(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    coefficient = (x1 * x1 + 1).invert() + x1 * th1 * th2
    used, unused = VolumeForm(c2, coefficient), VolumeForm(c2, coefficient)
    delta_rho(used, x1 * th1)
    assert "log_derivative" in vars(used)
    assert "log_derivative" not in vars(unused)
    assert used == unused
    assert hash(used) == hash(unused)
    assert repr(used) == repr(unused)
    assert used.log_derivative == unused.log_derivative


def test_delta_rho_refuses_a_function_on_another_chart(c2):
    th1, th2 = gens(c2, "th1", "th2")
    volume = VolumeForm(c2, SuperFunction.one(c2) + th1 * th2)
    with pytest.raises(ChartMismatch):
        delta_rho(volume, SuperFunction.generator(Chart.darboux(1), "x1"))
    with pytest.raises(ChartMismatch):
        delta_rho(volume, SuperFunction.generator(Chart.darboux(2, name="Q"), "x1"))


def test_one_volume_inverts_its_coefficient_once(c2, monkeypatch):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    coefficient = parse_expression("3*I/(1 + x1^2 + x2^2) + x1*th1*th2", c2)
    calls = []
    invert = SuperFunction.invert
    monkeypatch.setattr(SuperFunction, "invert", lambda self: calls.append(self) or invert(self))
    volume = VolumeForm(c2, coefficient)
    assert calls == []
    for f in (x1, th1, x1 * th2, th1 * th2, x2 * x2 * th1):
        delta_rho(volume, f)
    delta_rho_squared(volume, x1 * x2 * th1 * th2)
    assert calls == [coefficient]


def _delta0_by_partials(f):
    """The composed definition: ``sum_i d/dx^i (d f / dth_i)``."""
    chart = f.chart
    result = SuperFunction.zero(chart)
    for x_name, th_name in zip(chart.even_coords, chart.odd_coords):
        result = result + f.partial_odd(th_name).partial_even(x_name)
    return result


@pytest.mark.parametrize("externals", [(), ("eps1",)], ids=["plain", "external"])
@pytest.mark.parametrize("n", range(1, sampling.MAX_DIMENSION + 1))
def test_delta0_matches_the_composed_partials(n, externals):
    rng = Random(5200 + n)
    chart = sampling.default_chart(n, externals=externals)
    # A drawn body c / (1 + m^2) may have m = 1; the fixed one never does.
    fixed = parse_expression("1/(1 + x1^2)", chart)
    for _ in range(3):
        f = mixed(rng, chart)
        rho = sampling.random_volume(rng, chart, degree=1, rational=True).coefficient
        for g in (f, f * rho.invert(), f * fixed):
            assert delta0(g) == _delta0_by_partials(g)


_THETA_ROOTS = ("(1 + x1*th1*th2)*(2 + x2)", "3 + x1 + x2^2 + x1*th1*th2", "2 + x2*th1*th2 + x1*x2")


@pytest.mark.parametrize("root_text", ("1 + x1^2",) + _THETA_ROOTS)
def test_the_semidensity_laplacian_does_not_depend_on_the_volume(c2, root_text):
    # sqrt(rho) Delta_rho(s / sqrt(rho)) + (Delta_0 sqrt(rho) / sqrt(rho)) s = Delta_0 s.
    root = parse_expression(root_text, c2)
    volume = VolumeForm(c2, root * root)
    root_inv = root.invert()
    correction = delta0(root) * root_inv
    # Only a root with theta-dependence has a correction term, and only there
    # does the wrong sign on it fail the identity.
    assert correction.is_zero() == (root_text not in _THETA_ROOTS)
    rng = Random(5300)
    for _ in range(3):
        s = mixed(rng, c2)
        transported = root * delta_rho(volume, s * root_inv)
        assert transported + correction * s == delta0(s)
        if not correction.is_zero():
            assert transported - correction * s != delta0(s)
