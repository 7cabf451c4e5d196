"""Odd Poisson bracket, bracket axioms, and derived brackets."""

from itertools import product
from random import Random

import pytest

from oddsymplectic import charts, sampling
from oddsymplectic.brackets import (
    PoissonStructure,
    hamiltonian_vector_field,
    odd_poisson_bracket,
)
from oddsymplectic.derived import (
    CotangentStructure,
    MasterHamiltonian,
    check_axioms,
    master_condition,
)
from oddsymplectic.charts import (
    Density,
    exponentiate_hamiltonian,
    lie_derivative_density,
    symplectomorphism_defects,
)
from oddsymplectic.errors import ChartMismatch, NotFiberQuadratic, ParityViolation
from oddsymplectic.laplacians import log_derivative_bracket
from oddsymplectic.superalgebra import Chart, SuperFunction
from helpers import gens, mixed


def test_canonical_pairings(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    one = SuperFunction.one(c2)
    assert odd_poisson_bracket(x1, th1) == one
    assert odd_poisson_bracket(th1, x1) == -one
    assert odd_poisson_bracket(x1, th2).is_zero()
    assert odd_poisson_bracket(x1, x2).is_zero()
    assert odd_poisson_bracket(th1, th2).is_zero()


def test_bracket_adds_one_to_parity(c2):
    x1, th1, th2 = gens(c2, "x1", "th1", "th2")
    f = x1 * th1  # odd
    g = th1 * th2  # even
    fg = odd_poisson_bracket(f, g)
    assert not fg.is_zero()
    assert fg.parity() == (1 + 0 + 1) % 2


def test_self_bracket_of_odd_function_vanishes(c2):
    x1, th1 = gens(c2, "x1", "th1")
    f = x1 * th1
    assert odd_poisson_bracket(f, f).is_zero()


def test_even_self_bracket_can_survive():
    c3 = Chart.darboux(3)
    x1, x2, th1, th2, th3 = gens(c3, "x1", "x2", "th1", "th2", "th3")
    g = x1 * th1 * th2 + x2 * th2 * th3
    gg = odd_poisson_bracket(g, g)
    assert gg == (x1 * th1 * th2 * th3).scale(-2)


def test_hamiltonian_derivation_examples(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    # D_{th_1} x^1 = {th_1, x^1} = -1
    assert odd_poisson_bracket(th1, x1) == -SuperFunction.one(c2)
    # D_{th_1 th_2}: x^1 -> th_2, x^2 -> -th_1, th_i -> 0
    q = th1 * th2
    field = hamiltonian_vector_field(q)
    assert field["x1"] == th2
    assert field["x2"] == -th1
    assert field["th1"].is_zero()
    assert field["th2"].is_zero()


def test_bracket_matches_general_structure(c2):
    struct = PoissonStructure.darboux_odd(c2)
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    samples = [x1, th1, x1 * th1, th1 * th2, x2 * x1 * th2, x1 + x2 * x2]
    for f in samples:
        for g in samples:
            assert struct.bracket(f, g) == odd_poisson_bracket(f, g)


@pytest.mark.parametrize("n", range(1, sampling.MAX_DIMENSION + 1))
def test_derivation_users_match_the_oracle_on_mixed_parity(n):
    # The homogeneous samples above never exercise the twisted odd part of f
    # against an odd part of g; here both operands are mixed.
    rng = Random(4100 + n)
    chart = sampling.default_chart(n)
    struct = PoissonStructure.darboux_odd(chart)
    for _ in range(3):
        f, g = mixed(rng, chart), mixed(rng, chart)
        assert odd_poisson_bracket(f, g) == struct.bracket(f, g)
        field = hamiltonian_vector_field(f)
        assert list(field) == list(chart.even_coords + chart.odd_coords)
        for name, component in field.items():
            assert component == odd_poisson_bracket(f, SuperFunction.generator(chart, name))
        rho = sampling.random_volume(rng, chart, degree=1).coefficient
        assert log_derivative_bracket(rho, f) == rho.invert() * struct.bracket(rho, f)
        s = Density.semidensity(g)
        by_parts = lie_derivative_density(f.even_part(), s) + lie_derivative_density(
            f.odd_part(), s
        )
        assert lie_derivative_density(f, s) == by_parts


@pytest.mark.parametrize("n", range(1, sampling.MAX_DIMENSION + 1))
def test_vector_field_matches_the_composed_partials(n):
    # The one-pass derivation against its definition: D_f th_i = df/dx^i and
    # D_f x^i = d(f_even - f_odd)/dth_i, by SuperFunction's own partials.
    rng = Random(4200 + n)
    chart = sampling.default_chart(n)
    for _ in range(3):
        f = mixed(rng, chart)
        field = hamiltonian_vector_field(f)
        twisted = f.even_part() - f.odd_part()
        for x_name, th_name in zip(chart.even_coords, chart.odd_coords):
            assert field[th_name] == f.partial_even(x_name)
            assert field[x_name] == twisted.partial_odd(th_name)


def test_axioms_on_small_family(c2):
    x1, x2, th1, th2 = gens(c2, "x1", "x2", "th1", "th2")
    family = [
        SuperFunction.one(c2),
        x1,
        th1,
        x2 * th2,
        th1 * th2,
        x1 * x2,
        x1 * th1 * th2,
    ]
    report = check_axioms(odd_poisson_bracket, 1, triples=product(family, repeat=3))
    assert report.all_ok, report.failures
    assert report.triples_checked == len(family) ** 3


def test_axioms_detect_a_broken_bracket(c2):
    def broken(f, g):
        return f * g  # not antisymmetric, not a derivation of the right parity

    x1, th1 = gens(c2, "x1", "th1")
    report = check_axioms(broken, 1, triples=[(x1, th1, x1)])
    assert not report.all_ok
    assert not report.parity_ok
    assert not report.antisymmetry_ok
    assert not report.leibniz_ok
    assert not report.jacobi_ok
    assert report.triples_checked == 1


def test_axioms_bracket_each_pair_of_inputs_once(c2):
    # k^2 brackets of two inputs, then {f, g*h} and the three outer Jacobi
    # brackets per triple; nine per triple would mean no pair is shared.
    family = [SuperFunction.one(c2), *gens(c2, "x1", "th1", "th2")]
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return odd_poisson_bracket(f, g)

    k = len(family)
    report = check_axioms(counted, 1, triples=product(family, repeat=3))
    assert report.all_ok, report.failures
    assert len(calls) == k * k + 4 * k**3


class _Fresh(SuperFunction):
    """A copy in its own allocation size class: the blocks a freed copy
    leaves go to the next copies, not to the temporaries of a check."""

    __slots__ = ("pad1", "pad2", "pad3", "pad4", "pad5", "pad6", "pad7")


def test_axioms_memo_never_serves_a_stale_operand(c2):
    # Triples of fresh, equal copies of x1; the bracket breaks on the last
    # one only, where {x1, x1} = x1^2 has the wrong parity.  A memo keyed by
    # value, or by addresses it lets be freed and reused, serves the sound
    # brackets of an earlier triple and misses the break.
    total = 40
    (x1,) = gens(c2, "x1")
    state = {"broken": False}

    def bracket(f, g):
        return f * g if state["broken"] else odd_poisson_bracket(f, g)

    def fresh_triples():
        for index in range(total):
            state["broken"] = index == total - 1
            yield tuple(_Fresh(c2, x1.terms) for _ in range(3))

    report = check_axioms(bracket, 1, triples=fresh_triples())
    assert report.triples_checked == total
    assert not report.parity_ok
    assert report.failures
    assert all(f"triple #{total - 1}" in failure for failure in report.failures)


def test_classical_even_bracket():
    base = Chart(name="M", even_coords=("z1", "z2"), odd_coords=())
    cot = CotangentStructure(base=base)
    z1, pz1, z2, pz2 = gens(cot.chart, "z1", "pz1", "z2", "pz2")
    assert cot.structure.bracket(z1, pz1) == SuperFunction.one(cot.chart)
    assert cot.structure.bracket(pz1, z1) == -SuperFunction.one(cot.chart)
    assert cot.structure.bracket(z1, z2).is_zero()
    # even bracket of two odd generators is symmetric
    oddbase = Chart.darboux(1)
    oddcot = CotangentStructure(base=oddbase)
    th1, pth1 = gens(oddcot.chart, "th1", "pth1")
    assert oddcot.structure.bracket(th1, pth1) == SuperFunction.one(oddcot.chart)
    assert oddcot.structure.bracket(pth1, th1) == SuperFunction.one(oddcot.chart)


def test_derived_bracket_reproduces_the_odd_bracket():
    # S = sum_i px_i pth_i on the cotangent chart of a Darboux chart
    for n in (1, 2):
        base = Chart.darboux(n)
        cot = CotangentStructure(base=base)
        S = SuperFunction.zero(cot.chart)
        for i in range(1, n + 1):
            S = S + SuperFunction.generator(cot.chart, f"px{i}") * SuperFunction.generator(
                cot.chart, f"pth{i}"
            )
        H = MasterHamiltonian(ambient=cot, hamiltonian=S)
        assert H.derived_parity == 1
        assert master_condition(H).is_zero()
        samples = gens(base, *(base.even_coords + base.odd_coords))
        extra = [samples[0] * samples[n], SuperFunction.one(base)]
        for f in list(samples) + extra:
            for g in list(samples) + extra:
                assert H.derived_bracket(f, g) == odd_poisson_bracket(f, g)


def test_derived_bracket_bivector():
    base = Chart(name="M", even_coords=("z1", "z2"), odd_coords=())
    anti = CotangentStructure(base=base, reversed_fibers=True)
    z1 = SuperFunction.generator(base, "z1")
    z2 = SuperFunction.generator(base, "z2")
    S = (
        SuperFunction.generator(anti.chart, "z1")
        * SuperFunction.generator(anti.chart, "z1s")
        * SuperFunction.generator(anti.chart, "z2s")
    )
    H = MasterHamiltonian(ambient=anti, hamiltonian=S)
    assert H.derived_parity == 0
    bracket = H.derived_bracket
    assert bracket(z1, z2) == -z1
    assert bracket(z2, z1) == z1
    # any bivector on a 2-dimensional base satisfies Jacobi
    assert check_axioms(bracket, 0, triples=[(z1, z2, z1 * z2)]).jacobi_ok
    family = [z1, z2, z1 * z2, SuperFunction.one(base)]
    report = check_axioms(bracket, 0, triples=product(family, repeat=3))
    assert report.all_ok, report.failures


def test_derived_bracket_jacobi_violation_witness():
    base = Chart(name="M", even_coords=("z1", "z2", "z3"), odd_coords=())
    anti = CotangentStructure(base=base, reversed_fibers=True)

    def g(name):
        return SuperFunction.generator(anti.chart, name)

    S = g("z2") * g("z1s") * g("z2s") + g("z1") * g("z2s") * g("z3s")
    H = MasterHamiltonian(ambient=anti, hamiltonian=S)
    assert not anti.restrict_to_base(master_condition(H)).is_zero() or not master_condition(
        H
    ).is_zero()
    z1, z2, z3 = (SuperFunction.generator(base, n) for n in ("z1", "z2", "z3"))
    assert not check_axioms(H.derived_bracket, 0, triples=[(z1, z2, z3)]).jacobi_ok


def test_reversed_fiber_odd_derived_bracket():
    base = Chart.darboux(1)
    anti = CotangentStructure(base=base, reversed_fibers=True)
    S = -(
        SuperFunction.generator(anti.chart, "x1s")
        * SuperFunction.generator(anti.chart, "th1s")
    )
    H = MasterHamiltonian(ambient=anti, hamiltonian=S)
    assert H.derived_parity == 1
    x1, th1 = gens(base, "x1", "th1")
    assert H.derived_bracket(x1, th1) == SuperFunction.one(base)


def test_fiber_quadratic_validation():
    base = Chart.darboux(1)
    cot = CotangentStructure(base=base)
    px1 = SuperFunction.generator(cot.chart, "px1")
    with pytest.raises(NotFiberQuadratic):
        MasterHamiltonian(ambient=cot, hamiltonian=px1)  # degree one
    x1 = SuperFunction.generator(cot.chart, "x1")
    with pytest.raises(NotFiberQuadratic):
        MasterHamiltonian(ambient=cot, hamiltonian=px1 * px1 * px1 + x1)
    with pytest.raises(ParityViolation):
        MasterHamiltonian(ambient=cot, hamiltonian=px1 * px1 + px1 * SuperFunction.generator(cot.chart, "pth1"))


def test_bracket_chart_guards(c2):
    other = Chart.darboux(1)
    with pytest.raises(ChartMismatch):
        odd_poisson_bracket(
            SuperFunction.generator(c2, "x1"), SuperFunction.generator(other, "x1")
        )
    forms_only = Chart.forms(2)
    with pytest.raises(ChartMismatch):
        odd_poisson_bracket(
            SuperFunction.generator(forms_only, "x1"),
            SuperFunction.generator(forms_only, "x1"),
        )


# -- one derivation per Hamiltonian ---------------------------------------------------


def _counting_derivations(monkeypatch) -> list[SuperFunction]:
    built: list[SuperFunction] = []
    original = charts._hamiltonian_derivation

    def counted(f):
        built.append(f)
        return original(f)

    monkeypatch.setattr(charts, "_hamiltonian_derivation", counted)
    return built


def test_vector_field_reads_the_derivation_without_products(monkeypatch):
    chart = Chart.darboux(3)
    f = mixed(Random(7), chart)
    expected = {
        z: odd_poisson_bracket(f, SuperFunction.generator(chart, z))
        for z in chart.even_coords + chart.odd_coords
    }
    products = []
    original = SuperFunction.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(SuperFunction, "__mul__", counted)
    assert hamiltonian_vector_field(f) == expected
    assert products == []


def test_flow_builds_its_hamiltonian_derivation_once(monkeypatch):
    chart = Chart.darboux(2)
    x1, x2, th1 = gens(chart, "x1", "x2", "th1")
    q = x2 * th1 + x2 * x2 * th1
    built = _counting_derivations(monkeypatch)
    flow = exponentiate_hamiltonian(q, 1)
    assert flow.images["x1"] != x1
    assert built == [q]


def test_symplectomorphism_defects_build_one_derivation_per_coordinate(monkeypatch):
    chart = sampling.default_chart(3)
    transition = sampling.random_point_transition(Random(3), chart, degree=2)
    built = _counting_derivations(monkeypatch)
    assert symplectomorphism_defects(transition) == []
    assert len(built) == 2 * 3
    assert built == [transition.images[z] for z in chart.even_coords + chart.odd_coords]
