"""Cotangent lifts of base maps: dense quadratic maps, the inputs whose
Berezinians and bracket checks reduce the largest fractions, and lifts checked
against sympy's determinant of the base Jacobian.

The fixture ``tests/data/dense_lift_n4.json`` is written by this module's
helper; regenerate it with ``PYTHONPATH=src python tests/test_dense_lifts.py``.
"""

import json
from pathlib import Path
from random import Random

import pytest
import sympy

from oddsymplectic.charts import Chart, Transition, berezinian, jacobian
from oddsymplectic.cli import main
from oddsymplectic.expressions import transition_to_dict
from oddsymplectic.superalgebra import SuperFunction

FIXTURE = Path(__file__).parent / "data" / "dense_lift_n4.json"


def coordinates(n: int) -> list[SuperFunction]:
    """The even coordinates of the target chart ``P`` of dimension ``n``."""
    target = Chart.darboux(n, name="P")
    return [SuperFunction.generator(target, x) for x in target.even_coords]


def dense_map(n: int, seed: int) -> list[SuperFunction]:
    """The base map ``phi_i = x_i + sum_{j <= k} c x_j x_k``.

    Each quadratic monomial is kept with probability 1/2, and its ``c`` is
    drawn from {-1, 1, 2}, both from ``Random(seed)``.  The Jacobian is the
    identity at the origin, so the map is invertible there.
    """
    rng = Random(seed)
    xs = coordinates(n)
    phi = []
    for i in range(n):
        image = xs[i]
        for j in range(n):
            for k in range(j, n):
                if rng.random() < 0.5:
                    image = image + (xs[j] * xs[k]).scale(rng.choice((-1, 1, 2)))
        phi.append(image)
    return phi


def dense_lift(n: int, seed: int) -> dict:
    """The transition JSON of the cotangent lift of ``dense_map(n, seed)``."""
    phi = dense_map(n, seed)
    return transition_to_dict(Transition.point(Chart.darboux(n), phi[0].chart, phi))


def triangular_map(n: int) -> list[SuperFunction]:
    """``phi_i = x_i + x_{i+1}^2``, the last coordinate fixed: ``det J = 1``."""
    x = coordinates(n)
    return [x[i] + x[i + 1] * x[i + 1] for i in range(n - 1)] + [x[-1]]


def bent_map(n: int) -> list[SuperFunction]:
    """``phi_1 = x_1 + x_1^2 + x_2 x_3``, the rest fixed: ``det J = 1 + 2 x_1``."""
    x = coordinates(n)
    return [x[0] + x[0] * x[0] + x[1] * x[2], *x[1:]]


def to_sympy(f: SuperFunction, symbols) -> sympy.Expr:
    """The theta-free part of ``f`` as a sympy rational function."""

    def polynomial(p):
        return sum(
            (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
            * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
            for exps, c in p.terms.items()
        )

    body = f.body()
    return polynomial(body.num) / polynomial(body.den)


BASE_MAPS = {
    "dense-n3-seed1": lambda: dense_map(3, 1),
    "dense-n3-seed2": lambda: dense_map(3, 2),
    "dense-n3-seed3": lambda: dense_map(3, 3),
    "triangular-n3": lambda: triangular_map(3),
    "bent-n3": lambda: bent_map(3),
}


@pytest.mark.parametrize("name", BASE_MAPS)
def test_point_lift_against_sympy_and_the_jacobian(name):
    """``Ber = det(J)^2`` with sympy's determinant, and ``D J^T = 1`` for the
    odd-odd block ``D`` of the lift's Jacobian."""
    phi = BASE_MAPS[name]()
    target = phi[0].chart
    n = len(phi)
    lift = Transition.point(Chart.darboux(n), target, phi)
    symbols = sympy.symbols(target.evens)
    jac = sympy.Matrix(
        [[sympy.diff(to_sympy(f, symbols), symbols[k]) for k in range(n)] for f in phi]
    )
    assert sympy.cancel(to_sympy(berezinian(lift), symbols) - jac.det() ** 2) == 0
    jac_t = [[f.partial_even(x) for f in phi] for x in target.even_coords]
    d = [row[n:] for row in jacobian(lift)[n:]]
    zero, one = SuperFunction.zero(target), SuperFunction.one(target)
    for j in range(n):
        for k in range(n):
            entry = sum((d[j][m] * jac_t[m][k] for m in range(n)), zero)
            assert entry == (one if j == k else zero)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_lifts_at_n3_are_canonical(seed, capsys):
    code = main(["check-transition", json.dumps(dense_lift(3, seed))])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "canonical: yes" in out


def test_the_n4_fixture_is_the_helpers_output():
    assert json.loads(FIXTURE.read_text()) == dense_lift(4, 1)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(dense_lift(4, 1), indent=2) + "\n")
