"""Small builders shared by the test modules."""

from oddsymplectic import sampling
from oddsymplectic.superalgebra import SuperFunction


def gens(chart, *names):
    return tuple(SuperFunction.generator(chart, n) for n in names)


def one(chart):
    return SuperFunction.one(chart)


def mixed(rng, chart):
    """A random function with nonzero even and odd parts (redrawn until so)."""
    while True:
        f = sampling.random_superfunction(rng, chart, degree=2, parity=0)
        f = f + sampling.random_superfunction(rng, chart, degree=2, parity=1)
        if f.parity() is None:
            return f
