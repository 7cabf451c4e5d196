"""Acceptance suite: one test per numbered acceptance criterion.

Every assertion is an exact identity in the algebra of superfunctions with
rational coefficients; nothing is approximate.  Randomised inputs come from
seeded generators, so every run checks the same cases.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from oddsymplectic.brackets import odd_poisson_bracket
from oddsymplectic.derived import (
    CotangentStructure,
    MasterHamiltonian,
    check_axioms,
    master_condition,
)
from oddsymplectic.charts import (
    Density,
    Transition,
    berezinian,
    bv_identity,
    canonical_delta,
    exponentiate_hamiltonian,
    is_normal,
    is_symplectomorphism,
    transform_density,
)
from oddsymplectic.forms import (
    darboux_partner,
    de_rham,
    form_to_semidensity,
    semidensity_to_form,
)
from oddsymplectic.laplacians import (
    VolumeForm,
    delta0,
    delta_rho,
    delta_rho_squared,
    modular_hamiltonian,
)
from oddsymplectic.master import nu_constant
from oddsymplectic.sampling import (
    default_chart,
    random_adjusted_transition,
    random_point_transition,
    random_semidensity,
    random_shift_transition,
    random_square_volume,
    random_superfunction,
)
from oddsymplectic.superalgebra import Chart, SuperFunction
from helpers import gens, one


def _homogeneous(rng, chart, parity, degree=2):
    """A nonzero parity-homogeneous random sample."""
    while True:
        f = random_superfunction(rng, chart, degree, parity=parity)
        if not f.is_zero():
            return f


def _monomial_basis(chart, even_names, odd_names, max_even_degree=2):
    """All products (x-monomial of degree <= bound) * (subset of odd names)."""
    evens = [one(chart)]
    if max_even_degree >= 1:
        xs = list(gens(chart, *even_names))
        evens += xs
        if max_even_degree >= 2:
            evens += [a * b for i, a in enumerate(xs) for b in xs[i:]]
    odd_masks = [one(chart)]
    for name in odd_names:
        odd_masks += [mask * SuperFunction.generator(chart, name) for mask in odd_masks]
    return [e * mask for mask in odd_masks for e in evens]


# -- shared transition roster (criteria 4 and 5) ----------------------------------------


@pytest.fixture(scope="module")
def roster():
    """22 canonical transitions: nonlinear point maps, closed-one-form shifts,
    exponentiated odd-Hamiltonian flows, and six of their compositions, at
    dimensions 2 and 3."""
    rng = Random(20260804)
    chart3 = default_chart(3, externals=("eps1", "eps2"))
    points = [random_point_transition(rng, chart3) for _ in range(4)]
    shifts = [random_shift_transition(rng, chart3) for _ in range(4)]
    flows = [random_adjusted_transition(rng, chart3) for _ in range(4)]
    out = points + shifts + flows
    out.append(points[0].compose(shifts[0]))
    out.append(shifts[1].compose(flows[0]))
    out.append(flows[1].compose(points[1]))
    out.append(points[2].compose(points[3]))
    out.append(shifts[2].compose(shifts[3]))
    out.append(points[0].compose(shifts[1]).compose(flows[2]))
    chart2 = default_chart(2, externals=("eps1",))
    out.append(random_point_transition(rng, chart2))
    out.append(random_shift_transition(rng, chart2))
    out.append(random_adjusted_transition(rng, chart2))
    assert len(out) >= 20
    return out


# -- criteria ----------------------------------------------------------------------------


def test_criterion_01_bracket_axioms_on_exhaustive_basis():
    """Parity bookkeeping, graded antisymmetry, the Leibniz rule, and the
    graded Jacobi identity hold exactly for the canonical odd bracket on
    every ordered triple from the exhaustive basis of theta-monomials times
    x-monomials of degree <= 2 at n = 2 (24 functions, 13824 triples)."""
    chart = Chart.darboux(2)
    basis = _monomial_basis(chart, ("x1", "x2"), ("th1", "th2"))
    assert len(basis) == 24
    report = check_axioms(odd_poisson_bracket, 1, triples=product(basis, repeat=3))
    assert report.triples_checked == len(basis) ** 3
    assert report.triples_checked >= 10_000
    assert report.all_ok, report.failures


def test_criterion_02_squared_laplacians_vanish():
    """The coordinate odd Laplacian squares to zero on 100 random functions,
    and the canonical semidensity Laplacian squares to zero on 100 random
    semidensities, at dimensions 1 through 3: exact zeros."""
    rng = Random(20260802)
    for index in range(100):
        chart = default_chart(1 + index % 3)
        f = random_superfunction(rng, chart)
        assert delta0(delta0(f)).is_zero()
        s = random_semidensity(rng, chart)
        assert canonical_delta(canonical_delta(s)).coefficient.is_zero()


def test_criterion_03_leibniz_and_bracket_preservation_for_five_volumes():
    """The volume Laplacian obeys the product rule
    ``D(fg) = (Df)g + (-1)^{p(f)}({f,g} + f Dg)`` and differentiates the
    bracket, ``D{f,g} = {Df,g} + (-1)^{p(f)+1}{f,Dg}``, for five structurally
    distinct volume coefficients -- flat, polynomial body, nilpotent-
    perturbed, rational body, and a perfect square with soul -- on 100
    random pairs each, exactly."""
    chart = default_chart(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    soul = x1 * x2 * th1 * th2
    square_root = one(chart) + x1 + x2 * x2 + soul
    volumes = [
        VolumeForm.standard(chart),
        VolumeForm(chart, one(chart).scale(2) + x1 * x1 + x2 * x2),
        VolumeForm(chart, one(chart) + soul.scale(3) + x2 * th1 * th2),
        VolumeForm(chart, (one(chart) + x1 * x1).invert().scale(3) + x1 * th1 * th2),
        VolumeForm(chart, square_root * square_root),
    ]
    coefficients = [v.coefficient for v in volumes]
    assert all(
        coefficients[i] != coefficients[j]
        for i in range(len(volumes))
        for j in range(i + 1, len(volumes))
    )
    rng = Random(20260803)
    for rho in volumes:
        for k in range(100):
            f = _homogeneous(rng, chart, parity=k & 1)
            g = random_superfunction(rng, chart, degree=2)
            sign = -1 if f.parity_or_raise() else 1
            assert delta_rho(rho, f * g) == (
                delta_rho(rho, f) * g
                + odd_poisson_bracket(f, g).scale(sign)
                + (f * delta_rho(rho, g)).scale(sign)
            )
            assert delta_rho(rho, odd_poisson_bracket(f, g)) == (
                odd_poisson_bracket(delta_rho(rho, f), g)
                + odd_poisson_bracket(f, delta_rho(rho, g)).scale(-sign)
            )


def test_criterion_04_root_berezinian_closed_for_canonical_transitions(roster):
    """Every transition in the roster preserves the canonical bracket, and the
    square root of its Berezinian is annihilated by the coordinate odd
    Laplacian: 22 transitions spanning nonlinear point maps, closed-one-form
    shifts, exponentiated flows, and compositions, all exact."""
    for transition in roster:
        assert is_symplectomorphism(transition)
        assert bv_identity(transition).is_zero()


def test_criterion_05_semidensity_laplacian_is_equivariant(roster):
    """Transporting a semidensity and then applying the canonical Laplacian
    agrees exactly with applying the Laplacian first and transporting the
    result, for every transition in the roster and three random semidensities
    each."""
    rng = Random(20260805)
    for transition in roster:
        for _ in range(3):
            s = random_semidensity(rng, transition.source, degree=2)
            left = canonical_delta(transform_density(s, transition))
            right = transform_density(canonical_delta(s), transition)
            assert left == right


def test_criterion_06_pinned_values():
    """Concrete pinned values: the diagonal scaling x -> 2x, th -> th/2 has
    Berezinian 4, and the n = 2 form/semidensity dictionary reproduces its
    three pinned images (and the pinned inverse image) verbatim."""
    line = Chart.darboux(1)
    scaling = Transition.scaling(line, line, [2])
    assert berezinian(scaling) == one(line).scale(4)

    fchart = Chart.forms(2)
    dchart = darboux_partner(fchart)
    x1, x2, xi1, xi2 = gens(fchart, "x1", "x2", "xi1", "xi2")
    y1, y2, th1, th2 = gens(dchart, "x1", "x2", "th1", "th2")
    assert (
        form_to_semidensity(one(fchart) + x1 * x2).coefficient
        == (one(dchart) + y1 * y2) * th1 * th2
    )
    assert form_to_semidensity(x1 * xi1 + x2 * xi2).coefficient == y1 * th2 - y2 * th1
    assert form_to_semidensity(x2 * xi1 * xi2).coefficient == -y2
    assert semidensity_to_form(Density.semidensity(one(dchart))) == -xi1 * xi2


def test_criterion_07_bridge_intertwines_differential_and_laplacian():
    """The form-to-semidensity dictionary turns the exterior differential into
    the canonical semidensity Laplacian: exactly, for all 24 monomial forms
    with coefficients of degree <= 2 at n = 2, and for 100 random forms at
    n = 3."""
    fchart = Chart.forms(2)
    basis = _monomial_basis(fchart, ("x1", "x2"), ("xi1", "xi2"))
    assert len(basis) == 24
    for omega in basis:
        assert canonical_delta(form_to_semidensity(omega)) == form_to_semidensity(
            de_rham(omega)
        )
    rng = Random(20260807)
    fchart3 = Chart.forms(3)
    for _ in range(100):
        omega = random_superfunction(rng, fchart3, degree=2)
        assert canonical_delta(form_to_semidensity(omega)) == form_to_semidensity(
            de_rham(omega)
        )


def test_criterion_08_squared_laplacian_is_hamiltonian():
    """For volumes with an exact even square root r: the squared volume
    Laplacian acts as the Hamiltonian derivation of (D0 r)/r, and rescaling
    the volume by another perfect square shifts the squared Laplacian by the
    bracket with the comparison Hamiltonian -- 50 random (volume, f) cases,
    exact."""
    rng = Random(20260808)
    for k in range(50):
        chart = default_chart(1 + k % 3)
        volume = random_square_volume(rng, chart, degree=2)
        f = random_superfunction(rng, chart, degree=2)
        root = volume.coefficient.sqrt_even()
        assert root * root == volume.coefficient
        h = root.invert() * delta0(root)
        assert delta_rho_squared(volume, f) == odd_poisson_bracket(h, f)

        factor = random_square_volume(rng, chart, degree=2).coefficient
        other = volume.rescale(factor)
        comparison = modular_hamiltonian(volume, other)
        assert delta_rho_squared(other, f) - delta_rho_squared(
            volume, f
        ) == odd_poisson_bracket(comparison, f)


def test_criterion_09_master_chain_with_obstruction_witness():
    """Volumes transported from the constant one are normal: a candidate
    transition normalises them, their square roots are closed, and their
    Laplacians square to zero.  An external-parameter witness exhibits the
    sharp edge: its root obstruction constant is nonzero (the root is not
    closed) while the squared Laplacian still vanishes."""
    chart = Chart.darboux(2, externals=("eps1", "eps2"))
    x1, x2, th1, th2, eps1 = gens(chart, "x1", "x2", "th1", "th2", "eps1")
    rng = Random(20260809)

    scaling = Transition.scaling(chart, chart, [3, 1])
    scaling_inv = Transition.scaling(chart, chart, [Fraction(1, 3), 1])
    alpha = [eps1 * x1.scale(2), eps1.scale(2)]
    shift = Transition.shift_one_form(chart, chart, alpha)
    shift_inv = Transition.shift_one_form(chart, chart, [-a for a in alpha])
    q = eps1 * (one(chart) + x1) * th1 * th2
    flow = exponentiate_hamiltonian(q, 1)
    flow_inv = exponentiate_hamiltonian(q, -1)

    families = [
        (scaling.compose(shift), shift_inv.compose(scaling_inv)),
        (shift.compose(flow), flow_inv.compose(shift_inv)),
        (
            scaling.compose(shift).compose(flow),
            flow_inv.compose(shift_inv).compose(scaling_inv),
        ),
    ]
    for transition, inverse in families:
        round_trip = transition.compose(inverse)
        probe = x1 * th2 + x2 * x1 + th1 * eps1
        assert round_trip.apply(probe) == probe

        moved = transform_density(Density(chart, one(chart), Fraction(1)), transition)
        report = is_normal(moved, [inverse, Transition.identity(chart)])
        assert report.found
        assert 0 in report.normalising
        assert 1 not in report.normalising
        assert report.root_is_closed

        volume = VolumeForm(chart, moved.coefficient)
        for _ in range(5):
            f = random_superfunction(rng, chart, degree=2)
            assert delta_rho_squared(volume, f).is_zero()

    # Witness: the root 1 + x1*th1*eps1 is not closed (its obstruction
    # constant is a nonzero odd external), yet the squared Laplacian of the
    # squared root still vanishes identically.
    root = one(chart) + x1 * th1 * eps1
    witness = VolumeForm(chart, root * root)
    report = nu_constant(witness)
    assert not report.root_closed
    assert not report.nu.is_zero()
    assert delta0(report.root) == report.nu * report.root
    for _ in range(5):
        f = random_superfunction(rng, chart, degree=2)
        assert delta_rho_squared(witness, f).is_zero()


def test_criterion_10_derived_bracket_jacobi_iff_master():
    """The bracket derived from a fiber-quadratic Hamiltonian S on a
    cotangent-type chart satisfies the Jacobi identity when {S,S} = 0 (shown
    on the Hamiltonian whose derived bracket is the canonical odd bracket),
    a crafted S with {S,S} != 0 breaks Jacobi on an explicit triple, and the
    parity-flipped setup (even S, plain fibers) has {S,S} = 0 identically
    and yields a symmetric bilinear form."""
    # {S,S} = 0: the derived bracket is the canonical odd bracket and passes
    # every axiom on a homogeneous family.
    base = Chart.darboux(2)
    cot = CotangentStructure(base=base)
    S = SuperFunction.zero(cot.chart)
    for i in (1, 2):
        S = S + SuperFunction.generator(cot.chart, f"px{i}") * SuperFunction.generator(
            cot.chart, f"pth{i}"
        )
    H = MasterHamiltonian(ambient=cot, hamiltonian=S)
    assert master_condition(H).is_zero()
    x1, x2, th1, th2 = gens(base, "x1", "x2", "th1", "th2")
    family = [one(base), x1, x2 * x2, th1, x1 * th2, th1 * th2, x1 * x2 * th1]
    report = check_axioms(H.derived_bracket, 1, triples=product(family, repeat=3))
    assert report.all_ok, report.failures
    for f in family:
        for g in family:
            assert H.derived_bracket(f, g) == odd_poisson_bracket(f, g)

    # {S,S} != 0: an explicit bivector-type Hamiltonian on a three-dimensional
    # base violates Jacobi on a concrete triple.
    base3 = Chart(name="B3", even_coords=("z1", "z2", "z3"), odd_coords=())
    anti = CotangentStructure(base=base3, reversed_fibers=True)

    def g(name):
        return SuperFunction.generator(anti.chart, name)

    S_bad = g("z2") * g("z1s") * g("z2s") + g("z1") * g("z2s") * g("z3s")
    H_bad = MasterHamiltonian(ambient=anti, hamiltonian=S_bad)
    assert not master_condition(H_bad).is_zero()
    z1, z2, z3 = (SuperFunction.generator(base3, n) for n in ("z1", "z2", "z3"))
    assert not check_axioms(H_bad.derived_bracket, 0, triples=[(z1, z2, z3)]).jacobi_ok

    # Parity-flipped: an even fiber-quadratic S on plain (even) fibers has
    # {S,S} = 0 identically -- the condition is automatic -- and the derived
    # bracket is a symmetric bilinear form.
    ebase = Chart(name="B2", even_coords=("w1", "w2"), odd_coords=())
    ecot = CotangentStructure(base=ebase)
    pw1, pw2, w2t = gens(ecot.chart, "pw1", "pw2", "w2")
    S_sym = pw1 * pw1 + (one(ecot.chart) + w2t) * pw1 * pw2 + pw2 * pw2
    H_sym = MasterHamiltonian(ambient=ecot, hamiltonian=S_sym)
    assert master_condition(H_sym).is_zero()
    w1, w2 = gens(ebase, "w1", "w2")
    probes = [w1, w2, w1 * w2, w1 * w1 + w2]
    for f in probes:
        for h in probes:
            assert H_sym.derived_bracket(f, h) == H_sym.derived_bracket(h, f)
    assert H_sym.derived_bracket(w1, w1) == one(ebase).scale(-2)


def _nilpotent_time_coefficient(diff, time, names):
    """The unique X free of the flow-time generators with time * X == diff."""
    candidate = diff.berezin_integral(names)
    for x in (candidate, -candidate):
        if time * x == diff:
            return x
    raise AssertionError("transport displacement is not linear in the flow time")


def test_criterion_11_commutator_matches_flow_transport():
    """The graded commutator of the canonical semidensity Laplacian with
    multiplication by f equals the first-order transport of the semidensity
    along the canonical flow of f, on 100 random homogeneous f and random s
    at n = 1 and 2.

    The flow side is an independent oracle: the flow of the Hamiltonian
    (-1)^{p(f)} f over a fresh nilpotent external time (a single odd constant
    for even f, a product of two odd constants for odd f) is built by the
    exponential series, the semidensity is transported through the resulting
    transition (picking up the root of its Berezinian), and the time
    coefficient of the displacement is extracted by Berezin integration and
    verified by exact multiplication.  No closed-form Lie-derivative formula
    is consulted."""
    rng = Random(20260811)
    for k in range(100):
        n = 1 + (k % 2)
        pf = (k // 2) % 2
        plain = Chart.darboux(n)
        extended = Chart.darboux(n, externals=("e1", "e2"))
        embed = Transition(plain, extended, {})

        f = _homogeneous(rng, plain, parity=pf)
        s = random_superfunction(rng, plain, degree=2)
        sign = -1 if pf else 1
        commutator = delta0(f * s) - (f * delta0(s)).scale(sign)

        f_ext = embed.apply(f)
        s_ext = embed.apply(s)
        if pf:
            time_names = ("e1", "e2")
            generator = -f_ext
        else:
            time_names = ("e1",)
            generator = f_ext
        time = one(extended)
        for name in time_names:
            time = time * SuperFunction.generator(extended, name)
        flow = exponentiate_hamiltonian(generator, time)
        moved = transform_density(Density.semidensity(s_ext), flow)
        displacement = moved.coefficient - s_ext
        lie = _nilpotent_time_coefficient(displacement, time, time_names)
        assert embed.apply(commutator) == lie
