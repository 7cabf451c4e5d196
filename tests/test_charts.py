"""Coordinate transitions, Berezinians, density transport, and flows."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from oddsymplectic import sampling
from oddsymplectic.charts import (
    Density,
    Transition,
    _solve_even,
    berezinian,
    bv_identity,
    canonical_delta,
    exponentiate_hamiltonian,
    is_normal,
    is_symplectomorphism,
    jacobian,
    laplacian_conjugation_defect,
    lie_derivative_density,
    sqrt_berezinian,
    transform_density,
)
from oddsymplectic.errors import (
    ChartMismatch,
    InvalidTransition,
    NonInvertibleBody,
    NonTerminatingFlow,
    NotClosed,
    ParityViolation,
)
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.laplacians import delta0
from oddsymplectic.superalgebra import Chart, SuperFunction
from helpers import gens, one
from test_dense_lifts import dense_map


# -- basic transitions ------------------------------------------------------------


def test_identity_transition_fixes_functions():
    chart = Chart.darboux(2)
    x1, th2 = gens(chart, "x1", "th2")
    ident = Transition.identity(chart)
    f = x1 * x1 * th2 + x1
    assert ident.apply(f) == f
    assert berezinian(ident) == one(chart)


def test_scaling_images_and_berezinian():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    t = Transition.scaling(src, tgt, [2])
    (x1p,) = gens(tgt, "x1")
    (th1p,) = gens(tgt, "th1")
    assert t.images["x1"] == x1p.scale(2)
    assert t.images["th1"] == th1p.scale(Fraction(1, 2))
    assert berezinian(t) == one(tgt).scale(4)
    assert sqrt_berezinian(t) == one(tgt).scale(2)
    assert is_symplectomorphism(t)
    assert bv_identity(t).is_zero()


@pytest.mark.parametrize(
    "factors",
    [[3, -1], [Fraction(1, 2), Fraction(-5, 3)], [GaussianRational(1, 2), GaussianRational(0, -1)]],
    ids=["int", "fraction", "gaussian"],
)
def test_scaling_is_the_lift_of_a_diagonal_map(factors):
    src = Chart.darboux(2)
    tgt = Chart.darboux(2, name="P")
    x1p, x2p = gens(tgt, "x1", "x2")
    scaled = Transition.scaling(src, tgt, factors)
    lifted = Transition.point(src, tgt, [x1p * factors[0], x2p * factors[1]])
    assert scaled.images == lifted.images


def test_scaling_by_a_function_is_canonical():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    x1p, th1p = gens(tgt, "x1", "th1")
    stretch = one(tgt) + x1p
    t = Transition.scaling(src, tgt, [stretch.body()])
    # x1 = (1 + x1') x1', so J = 1 + 2 x1' and th1 = th1' / (1 + 2 x1').
    assert t.images["x1"] == stretch * x1p
    assert t.images["th1"] == th1p * (one(tgt) + x1p.scale(2)).invert()
    assert is_symplectomorphism(t)
    assert sqrt_berezinian(t) == one(tgt) + x1p.scale(2)
    assert bv_identity(t).is_zero()


def test_scaling_by_zero_is_a_degenerate_lift():
    with pytest.raises(InvalidTransition, match="degenerate Jacobian"):
        Transition.scaling(Chart.darboux(2), Chart.darboux(2, name="P"), [1, 0])


def test_scaling_jacobian_blocks():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    t = Transition.scaling(src, tgt, [2])
    jac = jacobian(t)
    assert jac[0][0] == one(tgt).scale(2)
    assert jac[0][1].is_zero()
    assert jac[1][0].is_zero()
    assert jac[1][1] == one(tgt).scale(Fraction(1, 2))


def test_point_transformation_square_map():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    x1p, th1p = gens(tgt, "x1", "th1")
    t = Transition.point(src, tgt, [x1p * x1p])
    # th transforms by the inverse Jacobian of the base map: th1 = th1' / (2 x1').
    assert t.images["th1"] == th1p * (x1p.scale(2)).invert()
    ber = berezinian(t)
    assert ber == (x1p * x1p).scale(4)
    assert sqrt_berezinian(t) == x1p.scale(2)
    assert is_symplectomorphism(t)
    assert bv_identity(t).is_zero()


def test_point_transformation_shear_two_dim():
    src = Chart.darboux(2)
    tgt = Chart.darboux(2, name="P")
    x1p, x2p, th1p, th2p = gens(tgt, "x1", "x2", "th1", "th2")
    t = Transition.point(src, tgt, [x1p + x2p * x2p, x2p])
    assert t.images["th1"] == th1p
    assert t.images["th2"] == th2p - x2p.scale(2) * th1p
    assert berezinian(t) == one(tgt)
    assert is_symplectomorphism(t)
    assert bv_identity(t).is_zero()


def test_point_transformation_rejects_degenerate_base_map():
    src = Chart.darboux(2)
    tgt = Chart.darboux(2, name="P")
    x1p, x2p = gens(tgt, "x1", "x2")
    with pytest.raises(InvalidTransition):
        Transition.point(src, tgt, [x1p + x2p, x1p + x2p])


def test_point_transformation_rejects_odd_dependence():
    src = Chart.darboux(2)
    tgt = Chart.darboux(2, name="P")
    x1p, x2p, th1p, th2p = gens(tgt, "x1", "x2", "th1", "th2")
    with pytest.raises(InvalidTransition):
        Transition.point(src, tgt, [x1p + th1p * th2p, x2p])


@pytest.mark.parametrize("n_target", [1, 3])
def test_every_constructor_refuses_blocks_of_different_sizes(n_target):
    src = Chart.darboux(2)
    tgt = Chart.darboux(n_target, name="P")
    x1p = gens(tgt, "x1")[0]
    zero = SuperFunction.zero(tgt)
    for build in (
        lambda: Transition(src, tgt, {}),
        lambda: Transition.scaling(src, tgt, [1, 2]),
        lambda: Transition.point(src, tgt, [x1p, x1p]),
        lambda: Transition.shift_one_form(src, tgt, [zero, zero]),
    ):
        with pytest.raises(InvalidTransition, match="even and 2 odd"):
            build()


def test_composition_chain_rule_for_berezinians():
    a = Chart.darboux(1, name="A")
    b = Chart.darboux(1, name="B")
    c = Chart.darboux(1, name="C")
    x1c = SuperFunction.generator(c, "x1")
    first = Transition.scaling(a, b, [2])
    second = Transition.point(b, c, [x1c * x1c])
    chained = first.compose(second)
    assert chained.images["x1"] == (x1c * x1c).scale(2)
    lhs = berezinian(chained)
    rhs = second.apply(berezinian(first)) * berezinian(second)
    assert lhs == rhs
    assert is_symplectomorphism(chained)
    assert bv_identity(chained).is_zero()


def test_compose_requires_matching_intermediate_chart():
    a = Chart.darboux(1, name="A")
    b = Chart.darboux(1, name="B")
    c = Chart.darboux(2, name="C")
    x1c = SuperFunction.generator(c, "x1")
    first = Transition.scaling(a, b, [2])
    with pytest.raises(ChartMismatch):
        first.compose(Transition.point(c, c, [x1c, SuperFunction.generator(c, "x2")]))


# -- validation -------------------------------------------------------------------


def test_transition_rejects_wrong_parity_image():
    chart = Chart.darboux(1)
    (x1,) = gens(chart, "x1")
    with pytest.raises(ParityViolation):
        Transition(chart, chart, {"th1": x1})


@pytest.mark.parametrize("images", [{"x1": 2}, {"th1": 0}], ids=["even", "odd"])
def test_transition_rejects_an_image_that_is_not_a_function(images):
    chart = Chart.darboux(1)
    (name,) = images
    with pytest.raises(InvalidTransition, match=f"image of '{name}' is not a function"):
        Transition(chart, chart, images)


def test_transition_rejects_unknown_image_names():
    chart = Chart.darboux(1)
    (x1,) = gens(chart, "x1")
    with pytest.raises(InvalidTransition):
        Transition(chart, chart, {"y9": x1})


def test_transition_requires_images_for_renamed_targets():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="Q", even_prefix="y", odd_prefix="et")
    with pytest.raises(InvalidTransition):
        Transition(src, tgt, {})


def test_berezinian_rejects_degenerate_odd_block():
    chart = Chart.darboux(2)
    th1, th2 = gens(chart, "th1", "th2")
    t = Transition(chart, chart, {"th1": th1 + th2, "th2": th1 + th2})
    with pytest.raises(InvalidTransition):
        berezinian(t)


def test_berezinian_rejects_degenerate_even_block():
    # A Schur complement A - B D^{-1} C whose determinant has zero body is
    # no change of coordinates; its Berezinian would read 0.
    line = Chart.darboux(1)
    line_p = Chart.darboux(1, name="P", even_prefix="y", odd_prefix="e")
    plane = Chart.darboux(2)
    plane_p = Chart.darboux(2, name="P", even_prefix="y", odd_prefix="e")
    (e1,) = gens(line_p, "e1")
    y1, y2, f1, f2 = gens(plane_p, "y1", "y2", "e1", "e2")
    for t in (
        Transition(line, line_p, {"x1": SuperFunction.zero(line_p), "th1": e1}),
        Transition(plane, plane_p, {"x1": y1 + y2, "x2": y1 + y2, "th1": f1, "th2": f2}),
        Transition(plane, plane_p, {"x1": f1 * f2, "x2": y2, "th1": f1, "th2": f2}),
    ):
        with pytest.raises(InvalidTransition, match="even-even block"):
            berezinian(t)
        with pytest.raises(InvalidTransition, match="even-even block"):
            transform_density(Density.semidensity(one(t.source)), t)
        s = SuperFunction.generator(t.source, "x1")
        assert transform_density(Density(t.source, s, 0), t).coefficient == t.images["x1"]


def test_berezinian_without_odd_coordinates_is_the_even_determinant():
    chart = Chart.forms(2)
    assert chart.odd_coords == ()
    x1, x2 = gens(chart, "x1", "x2")
    t = Transition(chart, chart, {"x1": x1.scale(2) + x2 * x2, "x2": x1 + x2})
    assert berezinian(t) == one(chart).scale(2) - x2.scale(2)


def test_berezinian_with_rational_coefficients():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    t = Transition(chart, chart, {"th1": x1 * th1})
    assert berezinian(t) == x1.invert()
    assert not is_symplectomorphism(t)


# -- the elimination against Leibniz's formula --------------------------------------

# Three odd generators keep the random matrices cheap; four let a product of
# two even nilpotents survive.
NILPOTENT_CHART = Chart.darboux(2, externals=("eps1",))
DEEP_NILPOTENT_CHART = Chart.darboux(2, externals=("eps1", "eps2"))


def leibniz_det(m, chart):
    """The determinant as Leibniz's permutation sum (the elimination's oracle)."""
    total = SuperFunction.zero(chart)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = one(chart)
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total - term if inversions % 2 else total + term
    return total


def identity_matrix(size, chart):
    return [
        [one(chart) if r == c else SuperFunction.zero(chart) for c in range(size)]
        for r in range(size)
    ]


def random_even_matrix(rng, size, chart, nilpotent_first_column=False):
    """Entries: a body linear in ``x1``, an even nilpotent part, either, or zero."""
    (x1,) = gens(chart, "x1")
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            entry = SuperFunction.zero(chart)
            if rng.random() < 0.6 and not (nilpotent_first_column and c == 0):
                entry = entry + x1.scale(rng.randint(-2, 2)) + rng.choice((-2, -1, 1, 3))
            if rng.random() < 0.5:
                entry = entry + sampling.random_nilpotent_even(rng, chart, degree=0)
            row.append(entry)
        rows.append(row)
    return rows


def check_elimination(m, chart):
    """Compare det with Leibniz and the inverse with the identity; return det."""
    det, rest = _solve_even(m, None, chart)
    assert rest == []
    assert det == leibniz_det(m, chart)
    size = len(m)
    if 0 in det.terms:
        det_again, inv = _solve_even(m, identity_matrix(size, chart), chart)
        assert det_again == det
        product = [
            [
                sum((m[i][k] * inv[k][j] for k in range(size)), SuperFunction.zero(chart))
                for j in range(size)
            ]
            for i in range(size)
        ]
        assert product == identity_matrix(size, chart)
    else:
        with pytest.raises(NonInvertibleBody):
            _solve_even(m, identity_matrix(size, chart), chart)
    return det


def test_elimination_matches_leibniz_on_random_even_matrices():
    chart = NILPOTENT_CHART
    rng = Random(2024)
    invertible = 0
    for trial in range(30):
        size = 1 + trial % 5
        det = check_elimination(random_even_matrix(rng, size, chart), chart)
        invertible += 0 in det.terms
    assert 10 <= invertible < 30


def test_elimination_expands_columns_without_an_invertible_entry():
    chart = DEEP_NILPOTENT_CHART
    x1, x2, th1, th2, eps1, eps2 = gens(chart, "x1", "x2", "th1", "th2", "eps1", "eps2")
    n1, n2 = th1 * th2, eps1 * eps2
    assert check_elimination([[n1, one(chart) + x1], [n2, x2]], chart) == (
        n1 * x2 - n2 * (one(chart) + x1)
    )
    # Two columns without a body: the expansion recurses into its minor.
    zero = SuperFunction.zero(chart)
    assert check_elimination([[n1, zero], [zero, n2]], chart) == n1 * n2
    assert check_elimination([[n1, n2], [n2, n1]], chart).is_zero()
    chart = NILPOTENT_CHART
    rng = Random(7)
    nonzero = 0
    for trial in range(20):
        size = 1 + trial % 5
        m = random_even_matrix(rng, size, chart, nilpotent_first_column=True)
        det = check_elimination(m, chart)
        assert 0 not in det.terms
        nonzero += not det.is_zero()
    assert nonzero >= 3


def test_empty_matrix_has_unit_determinant():
    chart = NILPOTENT_CHART
    assert _solve_even([], None, chart) == (one(chart), [])
    assert _solve_even([], [], chart) == (one(chart), [])


# -- transitions past dimension three -----------------------------------------------


def transitions_of_every_kind(n):
    """Point, bent point, shift and flow transitions built by the constructors."""
    chart = Chart.darboux(n, externals=("eps1", "eps2"))
    x = gens(chart, *chart.even_coords)
    th = gens(chart, *chart.odd_coords)
    eps1, eps2 = gens(chart, "eps1", "eps2")
    triangular = [x[i] + x[i + 1] * x[i + 1] for i in range(n - 1)] + [x[-1]]
    point = Transition.point(chart, chart, triangular)
    bent = Transition.point(chart, chart, [x[0] + x[0] * x[0] + x[1] * x[2], *x[1:]])
    potential = eps1 * (x[0] * x[1] + x[2] * x[2]) + eps2 * x[-1] * x[0] * x[0]
    shift = Transition.shift_one_form(
        chart, chart, [potential.derivative(name) for name in chart.even_coords]
    )
    q = (one(chart) + x[0]) * th[0] * th[1] * th[2] + eps1 * x[1] * th[0] * th[-1]
    flow = exponentiate_hamiltonian(q, Fraction(1, 2))
    return chart, {"point": point, "bent": bent, "shift": shift, "flow": flow}


def berezinian_from_the_full_jacobian(transition):
    """``det(A - B D^{-1} C) / det(D)`` with every block taken from :func:`jacobian`."""
    chart = transition.target
    n = len(transition.source.even_coords)
    jac = jacobian(transition)
    a = [row[:n] for row in jac[:n]]
    b = [row[n:] for row in jac[:n]]
    c = [row[:n] for row in jac[n:]]
    d = [row[n:] for row in jac[n:]]
    det_d, x = _solve_even(d, c, chart)
    schur = [
        [
            a[i][j] - sum((b[i][k] * x[k][j] for k in range(len(d))), SuperFunction.zero(chart))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _solve_even(schur, None, chart)[0] * det_d.invert()


def berezinian_through_the_even_block(transition):
    """``det(A) / det(D - C A^{-1} B)``: the other Schur complement's formula."""
    chart = transition.target
    n = len(transition.source.even_coords)
    jac = jacobian(transition)
    a = [row[:n] for row in jac[:n]]
    b = [row[n:] for row in jac[:n]]
    c = [row[:n] for row in jac[n:]]
    d = [row[n:] for row in jac[n:]]
    det_a, y = _solve_even(a, b, chart)
    schur = [
        [
            d[i][j] - sum((c[i][k] * y[k][j] for k in range(n)), SuperFunction.zero(chart))
            for j in range(len(d))
        ]
        for i in range(len(d))
    ]
    return det_a * _solve_even(schur, None, chart)[0].invert()


def test_berezinian_with_odd_off_diagonal_blocks():
    chart = Chart.darboux(1).with_externals("eps1", "eps2")
    x1, th1, eps1, eps2 = gens(chart, "x1", "th1", "eps1", "eps2")
    t = Transition(chart, chart, {"x1": x1 + eps1 * th1, "th1": th1 + eps2 * x1})
    jac = jacobian(t)
    assert jac[0][1] == -eps1 and jac[1][0] == eps2
    # det(A - B D^{-1} C) / det(D) = 1 - (-eps1) eps2.
    assert berezinian(t) == one(chart) + eps1 * eps2
    assert berezinian_through_the_even_block(t) == berezinian(t)
    assert berezinian_from_the_full_jacobian(t) == berezinian(t)


def assert_the_three_berezinians_agree(transition):
    ber = berezinian(transition)
    assert berezinian_from_the_full_jacobian(transition) == ber
    assert berezinian_through_the_even_block(transition) == ber


def tilt(chart):
    """``x_i -> x_i + eps1 th_i``, ``th_i -> th_i + eps2 x_i``: B and C both nonzero.

    The map is not canonical.  On the canonical maps above ``det(A - B D^{-1} C)``
    came out equal to ``det(A)``, so only a map like this one shows a dropped
    Schur term.
    """
    eps1, eps2 = gens(chart, "eps1", "eps2")
    images = {}
    for x, th in zip(chart.even_coords, chart.odd_coords):
        xi, thi = gens(chart, x, th)
        images[x] = xi + eps1 * thi
        images[th] = thi + eps2 * xi
    return Transition(chart, chart, images)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_berezinian_matches_the_oracles_on_every_kind(n):
    chart, kinds = transitions_of_every_kind(n)
    eps1, eps2 = gens(chart, "eps1", "eps2")
    kinds["tilt"] = tilt(chart)
    # (1 + eps1 eps2)^n, the product of the Schur complement's diagonal.
    assert berezinian(kinds["tilt"]) == one(chart) + (eps1 * eps2).scale(n)
    for first in kinds.values():
        assert_the_three_berezinians_agree(first)
        for then in kinds.values():
            assert_the_three_berezinians_agree(first.compose(then))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_berezinian_matches_the_oracles_on_dense_lifts(seed):
    phi = dense_map(3, seed)
    assert_the_three_berezinians_agree(Transition.point(Chart.darboux(3), phi[0].chart, phi))


@pytest.mark.parametrize("n", [4, 5])
def test_transitions_past_dimension_three(n):
    chart, kinds = transitions_of_every_kind(n)
    x1, x2, x3, th1, th2, th3 = gens(chart, "x1", "x2", "x3", "th1", "th2", "th3")
    stretch = one(chart) + x1.scale(2)
    bent = kinds["bent"]
    assert bent.images["th1"] == th1 * stretch.invert()
    assert bent.images["th2"] == th2 - x3 * th1 * stretch.invert()
    assert bent.images["th3"] == th3 - x2 * th1 * stretch.invert()
    assert berezinian(bent) == stretch * stretch
    assert berezinian(kinds["point"]) == one(chart)
    assert berezinian(kinds["shift"]) == one(chart)
    names = list(kinds)
    for index, name in enumerate(names):
        first, then = kinds[name], kinds[names[(index + 1) % len(names)]]
        assert is_symplectomorphism(first)
        assert bv_identity(first).is_zero()
        assert berezinian(first) == berezinian_through_the_even_block(first)
        chained = first.compose(then)
        assert berezinian(chained) == then.apply(berezinian(first)) * berezinian(then)


# -- one-form shifts --------------------------------------------------------------


def test_shift_by_closed_one_form_is_canonical():
    chart = Chart.darboux(2).with_externals("nu")
    x1, x2, th1, th2, nu = gens(chart, "x1", "x2", "th1", "th2", "nu")
    t = Transition.shift_one_form(chart, chart, [nu * x2, nu * x1])
    assert t.images["th1"] == th1 + nu * x2
    assert berezinian(t) == one(chart)
    assert is_symplectomorphism(t)
    assert bv_identity(t).is_zero()


def test_shift_by_non_closed_one_form_is_rejected():
    chart = Chart.darboux(2).with_externals("nu")
    x2, nu = gens(chart, "x2", "nu")
    zero = SuperFunction.zero(chart)
    with pytest.raises(NotClosed):
        Transition.shift_one_form(chart, chart, [nu * x2, zero])


def test_non_closed_shift_built_by_hand_breaks_the_bracket():
    chart = Chart.darboux(2).with_externals("nu")
    x2, th1, nu = gens(chart, "x2", "th1", "nu")
    t = Transition(chart, chart, {"th1": th1 + nu * x2})
    assert not is_symplectomorphism(t)


def test_shift_components_must_be_odd_and_coordinate_free():
    chart = Chart.darboux(1).with_externals("nu")
    x1, th1, nu = gens(chart, "x1", "th1", "nu")
    with pytest.raises(ParityViolation):
        Transition.shift_one_form(chart, chart, [x1])
    with pytest.raises(InvalidTransition):
        Transition.shift_one_form(chart, chart, [nu * th1 * th1 + th1])


# -- the coordinate Laplacian under transitions ------------------------------------


def test_laplacian_conjugation_on_square_map():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    x1, th1 = gens(src, "x1", "th1")
    x1p, th1p = gens(tgt, "x1", "th1")
    t = Transition.point(src, tgt, [x1p * x1p])
    f = x1 * th1
    # Both routes give 1: the pulled-back Laplacian and the corrected one.
    g = t.apply(f)
    assert g == x1p * th1p.scale(Fraction(1, 2))
    assert t.apply(delta0(f)) == one(tgt)
    assert laplacian_conjugation_defect(t, f).is_zero()


def test_laplacian_conjugation_on_various_transitions():
    src = Chart.darboux(2)
    tgt = Chart.darboux(2, name="P")
    x1, x2, th1, th2 = gens(src, "x1", "x2", "th1", "th2")
    x1p, x2p = gens(tgt, "x1", "x2")
    samples = [
        x1 * th1,
        x1 * x2 * th1 * th2,
        th1 * th2 + x2 * x2,
        x1 * x1 * th2 + th1,
    ]
    transitions = [
        Transition.scaling(src, tgt, [3, Fraction(1, 2)]),
        Transition.point(src, tgt, [x1p + x2p * x2p, x2p]),
        Transition.point(src, tgt, [x1p + x1p * x2p, x2p + x1p * x1p]),
    ]
    for t in transitions:
        for f in samples:
            assert laplacian_conjugation_defect(t, f).is_zero()


# -- densities ---------------------------------------------------------------------


def test_density_transport_integer_weights():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    t = Transition.scaling(src, tgt, [2])
    for weight, value in [(0, 1), (1, 4), (2, 16), (-1, Fraction(1, 4))]:
        rho = Density(src, one(src), Fraction(weight))
        moved = transform_density(rho, t)
        assert moved.coefficient == one(tgt).scale(value)
        assert moved.weight == weight


def test_density_transport_half_integer_weights():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    t = Transition.scaling(src, tgt, [2])
    s = Density.semidensity(one(src))
    assert transform_density(s, t).coefficient == one(tgt).scale(2)
    covector = Density(src, one(src), Fraction(-1, 2))
    assert transform_density(covector, t).coefficient == one(tgt).scale(Fraction(1, 2))


def test_density_transport_rejects_third_weights():
    src = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    t = Transition.scaling(src, tgt, [2])
    with pytest.raises(ValueError):
        transform_density(Density(src, one(src), Fraction(1, 3)), t)


def test_density_algebra_and_guards():
    chart = Chart.darboux(1)
    other = Chart.darboux(2)
    x1, th1 = gens(chart, "x1", "th1")
    s = Density.semidensity(x1)
    assert (s + Density.semidensity(th1)).coefficient == x1 + th1
    assert (s - s).coefficient.is_zero()
    with pytest.raises(ChartMismatch):
        s + Density.volume(x1)
    with pytest.raises(ChartMismatch):
        Density(other, x1, Fraction(1, 2))
    with pytest.raises(ChartMismatch):
        transform_density(
            Density.semidensity(SuperFunction.one(other)),
            Transition.identity(chart),
        )


def test_canonical_delta_acts_on_semidensities_only():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    s = Density.semidensity(x1 * th1)
    assert canonical_delta(s).coefficient == one(chart)
    assert canonical_delta(canonical_delta(s)).coefficient.is_zero()
    with pytest.raises(ValueError):
        canonical_delta(Density.volume(x1))


# -- flows -------------------------------------------------------------------------


def test_flow_of_odd_coordinate_translates_its_partner():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    t = exponentiate_hamiltonian(th1, 1)
    assert t.images["x1"] == x1 - one(chart)
    assert t.images["th1"] == th1
    assert is_symplectomorphism(t)
    assert berezinian(t) == one(chart)


def test_flow_group_law_and_invariance():
    chart = Chart.darboux(2)
    x1, th2 = gens(chart, "x1", "th2")
    q = x1 * x1 * th2
    once = exponentiate_hamiltonian(q, 1)
    twice = exponentiate_hamiltonian(q, 2)
    assert once.compose(once) == twice
    assert is_symplectomorphism(once)
    assert berezinian(once) == one(chart)
    assert bv_identity(once).is_zero()


def test_flow_with_odd_time_of_even_hamiltonian():
    chart = Chart.darboux(1).with_externals("nu")
    x1, th1, nu = gens(chart, "x1", "th1", "nu")
    t = exponentiate_hamiltonian(x1, nu)
    assert t.images["th1"] == th1 + nu
    assert t.images["x1"] == x1
    assert is_symplectomorphism(t)


def test_flow_parity_and_constancy_guards():
    chart = Chart.darboux(1).with_externals("nu")
    x1, th1, nu = gens(chart, "x1", "th1", "nu")
    with pytest.raises(ParityViolation):
        exponentiate_hamiltonian(th1, nu)
    with pytest.raises(ParityViolation):
        exponentiate_hamiltonian(x1, 1)
    with pytest.raises(ParityViolation):
        exponentiate_hamiltonian(th1, x1)
    with pytest.raises(ParityViolation):
        exponentiate_hamiltonian(x1 + th1, 1)


def test_flow_that_never_terminates_is_reported():
    chart = Chart.darboux(1)
    x1, th1 = gens(chart, "x1", "th1")
    with pytest.raises(NonTerminatingFlow):
        exponentiate_hamiltonian(x1 * th1, 1)


# -- Lie derivatives and first-order operators on semidensities ---------------------


def test_lie_derivative_direction_pins():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    s = x1 * x1 * x1 + x1 * x2 * th1 + th1 * th2
    dens = Density.semidensity(s)
    along_th1 = lie_derivative_density(th1, dens)
    assert along_th1.coefficient == s.partial_even("x1")
    along_x1 = lie_derivative_density(x1, dens)
    assert along_x1.coefficient == s.partial_odd("th1")


def test_lie_derivative_matches_flow_expansion_odd_generator():
    chart = Chart.darboux(2).with_params("t")
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    tpar = SuperFunction.generator(chart, "t")
    f = x1 * x1 * th2 + th1
    s = x1 * x2 + x2 * th1 * th2 + th2
    flow = exponentiate_hamiltonian(f, -tpar)
    moved = transform_density(Density.semidensity(s), flow)
    split = moved.coefficient.coefficients_in_param("t")
    assert split.get(0) == s
    assert split.get(1) == lie_derivative_density(f, Density.semidensity(s)).coefficient


def test_lie_derivative_matches_flow_expansion_even_generator():
    chart = Chart.darboux(2).with_externals("nu")
    x1, x2, th1, th2, nu = gens(chart, "x1", "x2", "th1", "th2", "nu")
    f = x1 * th1 * th2
    s = x2 + th1 + x1 * th2
    flow = exponentiate_hamiltonian(f, nu)
    moved = transform_density(Density.semidensity(s), flow)
    lie = lie_derivative_density(f, Density.semidensity(s)).coefficient
    assert moved.coefficient == s + nu * lie


def _lie_commutator_defect(f, density):
    """Lie derivative minus ``Delta(f s) - (-1)^{p(f)} f Delta(s)``: an oracle."""
    p = f.parity_or_raise("commutator input")
    delta_fs = canonical_delta(Density.semidensity(f * density.coefficient))
    f_delta_s = Density.semidensity(f * canonical_delta(density).coefficient)
    commutator = delta_fs - f_delta_s if p == 0 else delta_fs + f_delta_s
    return lie_derivative_density(f, density) - commutator


def test_lie_derivative_is_the_commutator_with_the_laplacian():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    dens = Density.semidensity(x1 * x2 + x1 * th1 * th2 + th2)
    for f in [x1 * x2, th1 * th2 + x2, x1 * x1 * th2 + th1, th1]:
        assert _lie_commutator_defect(f, dens).coefficient.is_zero()


def test_lie_derivative_along_odd_hamiltonian_values_and_commutation():
    # For odd q the Lie derivative is (Delta_0 q) s - {q, s}, and it commutes
    # with the canonical Laplacian.
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    s = Density.semidensity(x1 * x1)
    assert lie_derivative_density(th1, s).coefficient == x1.scale(2)
    q = x1 * x2 * th2 + th1
    rich = Density.semidensity(x1 * x2 + x2 * th1 * th2 + th2 + x1 * th1)
    lhs = canonical_delta(lie_derivative_density(q, rich))
    rhs = lie_derivative_density(q, canonical_delta(rich))
    assert (lhs - rhs).coefficient.is_zero()
    with pytest.raises(ValueError):
        lie_derivative_density(q, Density.volume(x1))


# -- normality ----------------------------------------------------------------------


def test_is_normal_finds_the_rescaling_witness():
    chart = Chart.darboux(1)
    tgt = Chart.darboux(1, name="P")
    rho = Density.volume(one(chart).scale(4))
    good = Transition.scaling(chart, tgt, [Fraction(1, 2)])
    bad = Transition.scaling(chart, tgt, [2])
    report = is_normal(rho, [bad, good])
    assert report.normalising == (1,)
    assert report.found
    assert report.root_is_closed
    assert transform_density(rho, good).coefficient == one(tgt)


def test_is_normal_necessary_condition_fails_for_obstructed_volume():
    chart = Chart.darboux(2)
    x1, x2, th1, th2 = gens(chart, "x1", "x2", "th1", "th2")
    g = one(chart) + x1 * x2 * th1 * th2
    rho = Density.volume(g * g)
    report = is_normal(rho, [])
    assert not report.found
    assert not report.root_is_closed
    assert report.delta_on_root == x2 * th2 - x1 * th1


def test_is_normal_requires_weight_one():
    chart = Chart.darboux(1)
    with pytest.raises(ValueError):
        is_normal(Density.semidensity(one(chart)), [])
