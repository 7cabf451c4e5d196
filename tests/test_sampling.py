"""Determinism and structural guarantees of the random generators."""

from random import Random

import pytest

from oddsymplectic import sampling
from oddsymplectic.charts import berezinian, bv_identity, is_symplectomorphism
from oddsymplectic.errors import InvalidTransition
from oddsymplectic.superalgebra import Chart, SuperFunction


def chart_with_external(n=2):
    return sampling.default_chart(n, externals=("eps1",))


def test_same_seed_reproduces_everything():
    chart = chart_with_external()
    a, b = Random(5), Random(5)
    for _ in range(5):
        assert sampling.random_superfunction(a, chart) == sampling.random_superfunction(
            b, chart
        )
    ta = sampling.random_transition(a, chart)
    tb = sampling.random_transition(b, chart)
    assert ta.images == tb.images


def test_dimension_policy_enforced():
    with pytest.raises(ValueError):
        sampling.default_chart(sampling.MAX_DIMENSION + 1)
    with pytest.raises(ValueError):
        sampling.default_chart(0)


def test_parity_of_samples():
    chart = chart_with_external()
    rng = Random(11)
    for _ in range(20):
        even = sampling.random_superfunction(rng, chart, parity=0)
        odd = sampling.random_superfunction(rng, chart, parity=1)
        assert even.is_zero() or even.parity() == 0
        assert odd.is_zero() or odd.parity() == 1
    nilpotent = sampling.random_nilpotent_even(rng, chart)
    assert nilpotent.parity() == 0
    assert nilpotent.body().is_zero()


def test_volumes_are_invertible_and_squares_are_exact():
    chart = chart_with_external()
    rng = Random(3)
    for _ in range(10):
        volume = sampling.random_volume(rng, chart)
        assert not volume.coefficient.body().is_zero()
        rational = sampling.random_volume(rng, chart, rational=True)
        assert not rational.coefficient.body().is_zero()
        square = sampling.random_square_volume(rng, chart)
        root = square.sqrt()
        assert root * root == square.coefficient


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_volumes_have_rational_bodies(n):
    chart = chart_with_external(n)
    rng = Random(5201)
    for _ in range(40):
        body = sampling.random_volume(rng, chart, rational=True).coefficient.body()
        assert not body.is_polynomial(), body


def test_point_transitions_are_canonical_and_nonlinear():
    chart = chart_with_external()
    rng = Random(23)
    saw_nonunit_berezinian = False
    for _ in range(8):
        t = sampling.random_point_transition(rng, chart)
        assert is_symplectomorphism(t)
        assert any(
            t.images[name] != SuperFunction.generator(chart, name)
            for name in chart.even_coords
        )
        if berezinian(t) != SuperFunction.one(chart):
            saw_nonunit_berezinian = True
    assert saw_nonunit_berezinian


def test_shift_transitions_fix_the_base():
    chart = chart_with_external()
    rng = Random(2)
    t = sampling.random_shift_transition(rng, chart)
    for name in chart.even_coords:
        assert t.images[name] == SuperFunction.generator(chart, name)
    assert is_symplectomorphism(t)
    plain = Chart.darboux(2)
    with pytest.raises(InvalidTransition):
        sampling.random_shift_transition(rng, plain)


def test_adjusted_transitions_are_canonical():
    chart = chart_with_external()
    rng = Random(9)
    t = sampling.random_adjusted_transition(rng, chart)
    assert is_symplectomorphism(t)
    cubic_chart = sampling.default_chart(3)
    t3 = sampling.random_adjusted_transition(rng, cubic_chart)
    assert is_symplectomorphism(t3)
    with pytest.raises(InvalidTransition):
        sampling.random_adjusted_transition(rng, Chart.darboux(2))


def test_roster_covers_all_kinds_and_satisfies_bv():
    chart = chart_with_external()
    rng = Random(41)
    roster = sampling.transition_roster(rng, chart, count=12)
    assert len(roster) >= 12
    for t in roster:
        assert bv_identity(t).is_zero()
    base_fixing = [
        t
        for t in roster
        if all(
            t.images[name] == SuperFunction.generator(chart, name)
            for name in chart.even_coords
        )
    ]
    assert base_fixing  # shifts (and pure-theta flows) appear
    assert len(base_fixing) < len(roster)  # point maps appear too
