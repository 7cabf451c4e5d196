"""Cotangent lifts of dense quadratic base maps: the inputs whose Berezinians
and bracket checks reduce the largest fractions.

The fixture ``tests/data/dense_lift_n4.json`` is written by this module's
helper; regenerate it with ``PYTHONPATH=src python tests/test_dense_lifts.py``.
"""

import json
from pathlib import Path
from random import Random

import pytest

from oddsymplectic.charts import Chart, Transition
from oddsymplectic.cli import main
from oddsymplectic.expressions import transition_to_dict
from oddsymplectic.superalgebra import SuperFunction

FIXTURE = Path(__file__).parent / "data" / "dense_lift_n4.json"


def dense_lift(n: int, seed: int) -> dict:
    """The transition JSON of the lift of ``phi_i = x_i + sum_{j <= k} c x_j x_k``.

    Each quadratic monomial is kept with probability 1/2, and its ``c`` is
    drawn from {-1, 1, 2}, both from ``Random(seed)``.  The Jacobian is the
    identity at the origin, so the map is invertible there.
    """
    rng = Random(seed)
    source, target = Chart.darboux(n), Chart.darboux(n, name="P")
    xs = [SuperFunction.generator(target, x) for x in target.even_coords]
    phi = []
    for i in range(n):
        image = xs[i]
        for j in range(n):
            for k in range(j, n):
                if rng.random() < 0.5:
                    image = image + (xs[j] * xs[k]).scale(rng.choice((-1, 1, 2)))
        phi.append(image)
    return transition_to_dict(Transition.point(source, target, phi))


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
