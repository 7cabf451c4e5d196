"""Seeded random generators for stress-testing the exact identities.

Sampling policy: integer coefficients in ``[-3, 3]``, polynomial degree at
most 3, dimension at most 5 (the tests cover every dimension up to the cap,
including n = 4 and 5, where the form bridge's inverse sign
``(-1)^{n(n-1)/2}`` is +1 again after -1 at n = 2 and 3).  The identities under test are multilinear in
their inputs, so small random samples (backed elsewhere by exhaustive
monomial bases) give full coverage while keeping exact arithmetic cheap.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Callable, Sequence

from .charts import Density, Transition, exponentiate_hamiltonian
from .errors import InvalidTransition
from .expressions import MAX_DIMENSION
from .laplacians import VolumeForm
from .superalgebra import Chart, SuperFunction

MIN_COEFFICIENT = -3
MAX_COEFFICIENT = 3
MAX_DEGREE = 3

_NONZERO = tuple(
    c for c in range(MIN_COEFFICIENT, MAX_COEFFICIENT + 1) if c != 0
)


def default_chart(n: int, *, externals: Sequence[str] = ()) -> Chart:
    """The standard chart used by the randomized suites."""
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be between 1 and {MAX_DIMENSION}")
    return Chart.darboux(n, externals=tuple(externals))


def _nonzero_coefficient(rng: Random) -> int:
    return rng.choice(_NONZERO)


def random_even_monomial(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> SuperFunction:
    """A monomial in the even coordinates of total degree at most ``degree``."""
    term = SuperFunction.one(chart)
    for _ in range(rng.randint(0, degree)):
        name = rng.choice(chart.even_coords)
        term = term * SuperFunction.generator(chart, name)
    return term


def random_even_polynomial(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE, max_terms: int = 3
) -> SuperFunction:
    """A polynomial in the even coordinates with small integer coefficients."""
    result = SuperFunction.zero(chart)
    for _ in range(rng.randint(1, max_terms)):
        term = random_even_monomial(rng, chart, degree)
        result = result + term.scale(_nonzero_coefficient(rng))
    return result


def random_superfunction(
    rng: Random,
    chart: Chart,
    degree: int = MAX_DEGREE,
    parity: int | None = None,
    max_terms: int = 4,
) -> SuperFunction:
    """A random function; ``parity`` restricts to homogeneous terms."""
    counts = [
        k
        for k in range(chart.nodds + 1)
        if parity is None or k % 2 == parity % 2
    ]
    if not counts:
        raise ValueError("the chart has no odd generators of the requested parity")
    return _random_terms(rng, chart, degree, counts, max_terms)


def random_nilpotent_even(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE, max_terms: int = 3
) -> SuperFunction:
    """An even function with zero body (every term carries odd factors)."""
    counts = [k for k in range(2, chart.nodds + 1, 2)]
    if not counts:
        raise ValueError("need at least two odd generators for a nilpotent even term")
    return _random_terms(rng, chart, degree, counts, max_terms)


def _random_terms(
    rng: Random, chart: Chart, degree: int, counts: Sequence[int], max_terms: int
) -> SuperFunction:
    """A sum of random terms, each with a number of odd factors from ``counts``."""
    result = SuperFunction.zero(chart)
    for _ in range(rng.randint(1, max_terms)):
        term = random_even_monomial(rng, chart, degree)
        for name in rng.sample(chart.odds, rng.choice(counts)):
            term = term * SuperFunction.generator(chart, name)
        result = result + term.scale(_nonzero_coefficient(rng))
    return result


def random_semidensity(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> Density:
    """A half-weight density with a random coefficient."""
    return Density.semidensity(random_superfunction(rng, chart, degree))


def random_volume(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE, rational: bool = False
) -> VolumeForm:
    """An even volume coefficient with invertible body.

    With ``rational=True`` the body is a genuine rational function ``c / (1
    + x_i^2)`` for one even coordinate ``x_i``, while the remaining terms all
    carry odd factors; the quotient of soul and body then stays polynomial,
    which keeps inverses inexpensive.
    """
    for _ in range(64):
        coefficient = SuperFunction.one(chart).scale(_nonzero_coefficient(rng))
        if rational:
            square = SuperFunction.generator(chart, rng.choice(chart.even_coords))
            square = square * square
            coefficient = coefficient * (SuperFunction.one(chart) + square).invert()
            if chart.nodds >= 2:
                coefficient = coefficient + random_nilpotent_even(rng, chart, degree)
        else:
            coefficient = coefficient + random_superfunction(rng, chart, degree, parity=0)
        if not coefficient.body().is_zero():
            return VolumeForm(chart, coefficient)
    raise RuntimeError("failed to sample an invertible volume coefficient")


def random_square_volume(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> VolumeForm:
    """A volume that is the exact square of an even invertible function."""
    for _ in range(64):
        root = SuperFunction.one(chart).scale(_nonzero_coefficient(rng))
        root = root + random_superfunction(rng, chart, degree, parity=0)
        if not root.body().is_zero():
            return VolumeForm(chart, root * root)
    raise RuntimeError("failed to sample an invertible square root")


# -- transitions ----------------------------------------------------------------------


def random_point_transition(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> Transition:
    """A nonlinear base map with invertible-body Jacobian, cotangent-lifted.

    Two flavours are mixed.  Triangular maps perturb each coordinate by
    polynomials in strictly later coordinates only, so the Jacobian is
    unitriangular and the lifted odd images stay polynomial.  Power maps bend
    a single coordinate by one of its own higher powers, which makes the
    Berezinian a nontrivial perfect square.
    """
    xs = [SuperFunction.generator(chart, name) for name in chart.even_coords]
    n = len(xs)
    phi = [xs[i] for i in range(n)]
    if n > 1 and rng.random() < 0.5:
        for i in range(n - 1):
            term = SuperFunction.one(chart)
            for _ in range(rng.randint(1, degree)):
                term = term * xs[rng.randrange(i + 1, n)]
            phi[i] = phi[i] + term.scale(_nonzero_coefficient(rng))
    else:
        i = rng.randrange(n)
        power = xs[i] * xs[i]
        if degree >= 3 and rng.random() < 0.5:
            power = power * xs[i]
        phi[i] = phi[i] + power.scale(rng.choice((-1, 1)))
    return Transition.point(chart, chart, phi)


def random_shift_transition(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> Transition:
    """An exact (hence closed) odd one-form shift of the odd coordinates."""
    if not chart.external_odds:
        raise InvalidTransition(
            "odd one-form shifts need external odd parameters in the chart"
        )
    potential = SuperFunction.zero(chart)
    for name in chart.external_odds:
        if rng.random() < 0.75 or potential.is_zero():
            factor = random_even_polynomial(rng, chart, degree)
            potential = potential + SuperFunction.generator(chart, name) * factor
    alpha = [potential.derivative(name) for name in chart.even_coords]
    return Transition.shift_one_form(chart, chart, alpha)


def random_adjusted_transition(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> Transition:
    """The exact flow of an odd Hamiltonian at least quadratic in the theta.

    Quadratic terms need an external odd prefactor; cubic terms exist from
    dimension three up.  Either way the flow terminates because each bracket
    application raises the odd degree.
    """
    n = len(chart.odd_coords)
    ths = [SuperFunction.generator(chart, name) for name in chart.odd_coords]
    shapes: list[tuple[int, ...]] = []
    if chart.external_odds and n >= 2:
        shapes.extend((i, j) for i in range(n) for j in range(i + 1, n))
    cubic_start = len(shapes)
    if n >= 3:
        shapes.extend(
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        )
    if not shapes:
        raise InvalidTransition(
            "adjusted flows need external odd parameters or dimension at least three"
        )
    hamiltonian = SuperFunction.zero(chart)
    while hamiltonian.is_zero():
        for _ in range(rng.randint(1, 2)):
            index = rng.randrange(len(shapes))
            term = random_even_polynomial(rng, chart, degree)
            if index < cubic_start:
                term = term * SuperFunction.generator(
                    chart, rng.choice(chart.external_odds)
                )
            for position in shapes[index]:
                term = term * ths[position]
            hamiltonian = hamiltonian + term
    time = rng.choice((1, -1, 2, Fraction(1, 2)))
    return exponentiate_hamiltonian(hamiltonian, time)


def _available_builders(
    chart: Chart,
) -> list[Callable[[Random, Chart, int], Transition]]:
    builders: list[Callable[[Random, Chart, int], Transition]] = [
        random_point_transition
    ]
    n = len(chart.odd_coords)
    if chart.external_odds:
        builders.append(random_shift_transition)
    if (chart.external_odds and n >= 2) or n >= 3:
        builders.append(random_adjusted_transition)
    return builders


def random_transition(
    rng: Random, chart: Chart, degree: int = MAX_DEGREE
) -> Transition:
    """One random transition of any available kind."""
    builder = rng.choice(_available_builders(chart))
    return builder(rng, chart, degree)


def transition_roster(
    rng: Random, chart: Chart, count: int = 20, degree: int = MAX_DEGREE
) -> list[Transition]:
    """At least ``count`` transitions cycling through every available kind,
    topped up with pairwise compositions."""
    builders = _available_builders(chart)
    base_count = max(len(builders), count - max(count // 4, 1))
    basics = [
        builders[i % len(builders)](rng, chart, degree) for i in range(base_count)
    ]
    roster = list(basics)
    while len(roster) < count:
        roster.append(rng.choice(basics).compose(rng.choice(basics)))
    return roster
