"""Coordinate transitions, Berezinians, and densities of rational weight.

A :class:`Transition` encodes a change of Darboux-type coordinates as a
substitution: it stores the *source* coordinates as functions of the
*target* chart.  Its Jacobian uses left derivatives, rows indexed by source
coordinates (even block first), columns by target coordinates; the
Berezinian is

    Ber(J) = det(A - B D^{-1} C) * det(D)^{-1}

for the block split J = [[A, B], [C, D]] along parities.  Densities of
weight ``t`` transform by ``coefficient -> substitute(coefficient) * Ber^t``
(half-integer weights through the exact even square root), so semidensities
are weight one-half.  The canonical odd Laplacian on semidensities acts as
``Delta_0`` on the coefficient in any Darboux system; transitions produced
by the constructors here preserve the canonical bracket, and the associated
invariance statement ``Delta_0(sqrt(Ber)) = 0`` is exposed for verification.

The linear algebra is one Gauss-Jordan elimination over the even
subalgebra.  Each column pivots on its first remaining entry with a nonzero
body (theta-free part), which is therefore invertible, and the determinant
is the signed product of the pivots.  A column without such an entry has a
determinant with zero body: the elimination then expands the remaining
block along that column, so nilpotent determinants stay exact.  One solve
of ``D X = C`` gives both ``det(D)`` and ``X = D^{-1} C`` (when ``B`` is
zero, as for point maps and shifts, ``X`` is not needed and only ``det(D)``
is computed); a second, without a right-hand side, gives the determinant of
the Schur complement ``A - B X``.  Point transformations invert their base
Jacobian with the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .brackets import _apply_derivation, _hamiltonian_derivation, _twisted, odd_poisson_bracket
from .errors import (
    ChartMismatch,
    InvalidTransition,
    NonInvertibleBody,
    NonTerminatingFlow,
    NotClosed,
    ParityViolation,
)
from .laplacians import VolumeForm, delta0, delta_rho
from .scalar import ScalarLike
from .superalgebra import Chart, SuperFunction

__all__ = [
    "Transition",
    "jacobian",
    "berezinian",
    "sqrt_berezinian",
    "is_symplectomorphism",
    "symplectomorphism_defects",
    "bv_identity",
    "laplacian_conjugation_defect",
    "Density",
    "transform_density",
    "canonical_delta",
    "lie_derivative_density",
    "exponentiate_hamiltonian",
    "MAX_FLOW_STEPS",
    "NormalityReport",
    "is_normal",
]

Matrix = list[list[SuperFunction]]

# Terms of a flow's exponential series before it is reported as not nilpotent.
MAX_FLOW_STEPS = 50


# -- small exact linear algebra over the even part of the algebra -------------------


def _solve_even(
    m: Matrix, rhs: Matrix | None, chart: Chart
) -> tuple[SuperFunction, Matrix]:
    """``(det(m), m^{-1} rhs)`` by Gauss-Jordan elimination over the even part.

    ``m`` is square with commuting (even) entries; the rows of ``rhs`` (of
    any parity) ride along with the row operations.  Each column pivots on
    the first remaining entry with a nonzero body, which is invertible, and
    the determinant is the signed product of the pivots.  A column with no
    such entry means ``det(m)`` has zero body: with ``rhs`` that is
    :class:`~oddsymplectic.errors.NonInvertibleBody`; without it the
    remaining block is expanded along that column, each minor solved again
    here, so nilpotent determinants come out exactly.  Without ``rhs`` the
    second element is empty.
    """
    size = len(m)
    if rhs is None:
        rows = [list(row) for row in m]
    else:
        rows = [list(row) + list(extra) for row, extra in zip(m, rhs)]
    det = SuperFunction.one(chart)
    for k in range(size):
        p = next((r for r in range(k, size) if 0 in rows[r][k].terms), None)
        if p is None:
            if rhs is not None:
                raise NonInvertibleBody("matrix determinant has a vanishing body")
            block = [row[k:] for row in rows[k:]]
            rest = SuperFunction.zero(chart)
            for i, row in enumerate(block):
                if row[0].is_zero():
                    continue
                minor = [r[1:] for j, r in enumerate(block) if j != i]
                term = row[0] * _solve_even(minor, None, chart)[0]
                rest = rest + term if i % 2 == 0 else rest - term
            return det * rest, []
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        pivot_row = rows[k]
        pivot = pivot_row[k]
        det = det * pivot
        inv = pivot.invert()
        for j in range(k + 1, len(pivot_row)):
            pivot_row[j] = pivot_row[j] * inv
        for i in range(k + 1, size) if rhs is None else range(size):
            factor = rows[i][k]
            if i == k or factor.is_zero():
                continue
            row = rows[i]
            for j in range(k + 1, len(row)):
                if not pivot_row[j].is_zero():
                    row[j] = row[j] - factor * pivot_row[j]
    return det, [] if rhs is None else [row[size:] for row in rows]


# -- transitions ----------------------------------------------------------------------


@dataclass(frozen=True)
class Transition:
    """A coordinate change, stored as source coordinates in target terms.

    ``images`` maps every source even/odd coordinate name to its expression
    on the target chart; parameters and external constants map to their
    namesakes.  Constructors: :meth:`identity`, :meth:`scaling`,
    :meth:`point`, :meth:`shift_one_form`, and
    :func:`exponentiate_hamiltonian`.
    """

    source: Chart
    target: Chart
    images: Mapping[str, SuperFunction]

    def __post_init__(self) -> None:
        _require_matching_blocks(self.source, self.target)
        fixed: dict[str, SuperFunction] = {}
        for name in self.source.even_coords + self.source.odd_coords:
            img = self.images.get(name)
            if img is None:
                if not self.target.has_generator(name):
                    raise InvalidTransition(
                        f"no image given for coordinate {name!r} and the target "
                        f"chart has no generator of that name"
                    )
                img = SuperFunction.generator(self.target, name)
            if img.chart != self.target:
                raise ChartMismatch(f"image of {name!r} does not live on the target chart")
            even = self.source.parity_of(name) == 0
            if even and not img.is_even():
                raise ParityViolation(f"image of even coordinate {name!r} must be even")
            if not even and not (img.is_zero() or img.is_odd()):
                raise ParityViolation(f"image of odd coordinate {name!r} must be odd")
            fixed[name] = img
        extra = set(self.images) - set(fixed)
        if extra:
            raise InvalidTransition(
                f"images given for names that are not source coordinates: {sorted(extra)}"
            )
        object.__setattr__(self, "images", fixed)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, chart: Chart) -> "Transition":
        return cls(chart, chart, {})

    @classmethod
    def scaling(
        cls, source: Chart, target: Chart, factors: Sequence[ScalarLike]
    ) -> "Transition":
        """Diagonal rescaling ``x^i -> c_i x'^i``, ``th_i -> th'_i / c_i``."""
        _require_matching_blocks(source, target)
        n = len(source.even_coords)
        if len(factors) != n:
            raise InvalidTransition("need one factor per even coordinate")
        images: dict[str, SuperFunction] = {}
        for i, (x, th) in enumerate(zip(source.even_coords, source.odd_coords)):
            c = SuperFunction.from_scalar(target, factors[i])
            if c.body().is_zero():
                raise InvalidTransition("scaling factors must be invertible")
            images[x] = c * SuperFunction.generator(target, target.even_coords[i])
            images[th] = c.invert() * SuperFunction.generator(
                target, target.odd_coords[i]
            )
        return cls(source, target, images)

    @classmethod
    def point(
        cls, source: Chart, target: Chart, phi: Sequence[SuperFunction]
    ) -> "Transition":
        """The cotangent lift of a base map ``x^i = phi^i(x')``.

        Odd coordinates transform contragradiently,
        ``th_j = sum_k (J^{-1})_{kj} th'_k`` with ``J_ik = d phi^i / dx'^k``,
        which preserves the canonical bracket.
        """
        _require_matching_blocks(source, target)
        n = len(source.even_coords)
        if len(phi) != n:
            raise InvalidTransition("need one image per even coordinate")
        for f in phi:
            if f.chart != target:
                raise ChartMismatch("base map components must live on the target chart")
            if f.odd_degree() or not f.is_even():
                raise InvalidTransition("base map components must be functions of x only")
        jac = [
            [phi[i].partial_even(xk) for xk in target.even_coords]
            for i in range(n)
        ]
        one, zero = SuperFunction.one(target), SuperFunction.zero(target)
        identity = [[one if r == c else zero for c in range(n)] for r in range(n)]
        try:
            _, jac_inv = _solve_even(jac, identity, target)
        except NonInvertibleBody:
            raise InvalidTransition("base map has a degenerate Jacobian") from None
        images: dict[str, SuperFunction] = {}
        for i, x in enumerate(source.even_coords):
            images[x] = phi[i]
        for j, th in enumerate(source.odd_coords):
            acc = SuperFunction.zero(target)
            for k, thk in enumerate(target.odd_coords):
                acc = acc + jac_inv[k][j] * SuperFunction.generator(target, thk)
            images[th] = acc
        return cls(source, target, images)

    @classmethod
    def shift_one_form(
        cls, source: Chart, target: Chart, alpha: Sequence[SuperFunction]
    ) -> "Transition":
        """The shift ``x^i -> x'^i``, ``th_j -> th'_j + alpha_j(x')``.

        Requires the odd-valued coefficients to form a closed one-form
        (``d alpha_i / dx^j`` symmetric), which makes the shift canonical.
        """
        images = _shift_images(source, target, alpha)
        for i in range(len(alpha)):
            for j in range(i + 1, len(alpha)):
                di = alpha[j].partial_even(target.even_coords[i])
                dj = alpha[i].partial_even(target.even_coords[j])
                if di != dj:
                    raise NotClosed(
                        f"shift one-form is not closed: d_{i + 1} alpha_{j + 1} "
                        f"!= d_{j + 1} alpha_{i + 1}"
                    )
        return cls(source, target, images)

    # -- actions -----------------------------------------------------------------

    def apply(self, f: SuperFunction) -> SuperFunction:
        """Pull a source-chart function through the substitution."""
        if f.chart != self.source:
            raise ChartMismatch("function does not live on the transition's source chart")
        return f.substitute(self.images, self.target)

    def compose(self, then: "Transition") -> "Transition":
        """First this transition, then ``then`` (whose source is our target)."""
        if then.source != self.target:
            raise ChartMismatch("compose requires matching intermediate charts")
        images = {name: then.apply(img) for name, img in self.images.items()}
        return Transition(self.source, then.target, images)


def _require_matching_blocks(source: Chart, target: Chart) -> None:
    """A coordinate change keeps the number of even and of odd coordinates."""
    src = (len(source.even_coords), len(source.odd_coords))
    tgt = (len(target.even_coords), len(target.odd_coords))
    if src != tgt:
        raise InvalidTransition(
            f"source chart {source.name!r} has {src[0]} even and {src[1]} odd coordinates, "
            f"target chart {target.name!r} has {tgt[0]} and {tgt[1]}"
        )


def _shift_images(
    source: Chart, target: Chart, alpha: Sequence[SuperFunction]
) -> dict[str, SuperFunction]:
    """Checked images ``th_j -> th'_j + alpha_j`` of an odd shift (closedness aside)."""
    _require_matching_blocks(source, target)
    if len(alpha) != len(source.even_coords):
        raise InvalidTransition("need one shift component per odd coordinate")
    for a in alpha:
        if a.chart != target:
            raise ChartMismatch("shift components must live on the target chart")
        if not (a.is_zero() or a.is_odd()):
            raise ParityViolation("shift components must be odd")
        for th in target.odd_coords:
            if a.depends_on_odd(target.odd_index(th)):
                raise InvalidTransition("shift components must not involve the odd coordinates")
    return {
        th: SuperFunction.generator(target, target.odd_coords[j]) + alpha[j]
        for j, th in enumerate(source.odd_coords)
    }


def jacobian(transition: Transition) -> Matrix:
    """Left-derivative Jacobian: rows = source coords, columns = target coords."""
    src = transition.source
    tgt = transition.target
    rows = src.even_coords + src.odd_coords
    cols = tgt.even_coords + tgt.odd_coords
    return [
        [transition.images[r].derivative(c) for c in cols]
        for r in rows
    ]


def berezinian(transition: Transition) -> SuperFunction:
    """The Berezinian of the transition's Jacobian (a target-chart function).

    Raises :class:`~oddsymplectic.errors.InvalidTransition` when the odd-odd
    block or the Schur complement of the even-even block is not invertible.
    """
    tgt = transition.target
    n_even = len(transition.source.even_coords)
    jac = jacobian(transition)
    a = [row[:n_even] for row in jac[:n_even]]
    b = [row[n_even:] for row in jac[:n_even]]
    c = [row[:n_even] for row in jac[n_even:]]
    d = [row[n_even:] for row in jac[n_even:]]
    # D^{-1} C is needed only against a nonzero B; point maps and shifts
    # have B = 0, and their Schur complement is A itself.
    rhs = c if any(not entry.is_zero() for row in b for entry in row) else None
    try:
        det_d, x = _solve_even(d, rhs, tgt)
        det_d_inv = det_d.invert()
    except NonInvertibleBody:
        raise InvalidTransition(
            "odd-odd block of the Jacobian is not invertible"
        ) from None
    # The Schur complement A - B (D^{-1} C): odd times odd, so even entries.
    schur = [list(row) for row in a]
    for i, b_row in enumerate(b):
        for k, b_ik in enumerate(b_row):
            if b_ik.is_zero():
                continue
            for j, x_kj in enumerate(x[k]):
                schur[i][j] = schur[i][j] - b_ik * x_kj
    det_schur, _ = _solve_even(schur, None, tgt)
    if 0 not in det_schur.terms:
        raise InvalidTransition("even-even block of the Jacobian is not invertible")
    return det_schur * det_d_inv


def sqrt_berezinian(transition: Transition) -> SuperFunction:
    """Exact square root of the Berezinian (raises if none exists)."""
    return berezinian(transition).sqrt_even()


def symplectomorphism_defects(transition: Transition) -> list[SuperFunction]:
    """Bracket defects of all coordinate pairs (all zero iff canonical).

    Checks ``{z^A . T, z^B . T}' = {z^A, z^B} . T`` on the generators, which
    by the Leibniz rule extends to all functions.
    """
    src = transition.source
    defects: list[SuperFunction] = []
    coords = list(src.even_coords) + list(src.odd_coords)
    imgs = transition.images
    n = len(src.even_coords)
    for i, zi in enumerate(coords):
        derivation = _hamiltonian_derivation(imgs[zi])
        for j, zj in enumerate(coords[i:], start=i):
            got = _apply_derivation(derivation, imgs[zj])
            if j == i + n and i < n:  # conjugate pair (x^i, th_i)
                got = got - SuperFunction.one(transition.target)
            if not got.is_zero():
                defects.append(got)
    return defects


def is_symplectomorphism(transition: Transition) -> bool:
    """True iff the transition preserves the canonical odd bracket."""
    return not symplectomorphism_defects(transition)


def bv_identity(transition: Transition) -> SuperFunction:
    """``Delta_0(sqrt(Ber))`` in the target chart — zero for canonical maps."""
    return delta0(sqrt_berezinian(transition))


def laplacian_conjugation_defect(
    transition: Transition, f: SuperFunction
) -> SuperFunction:
    """Defect of the coordinate-Laplacian transformation law.

    For a canonical transition with Berezinian ``B`` and ``g = f . T``:
    ``(Delta_0 f) . T = Delta_B g``, the odd Laplacian of ``g`` for the
    volume ``B``; the returned value is the difference of the two sides.
    """
    g = transition.apply(f)
    lhs = transition.apply(delta0(f))
    rhs = delta_rho(VolumeForm(transition.target, berezinian(transition)), g)
    return lhs - rhs


# -- densities -------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """A density of rational weight: ``coefficient * D(x, th)^weight``.

    Weight one is a volume element, weight one-half a semidensity, weight
    zero a plain function.  Only integer and half-integer weights transform
    exactly in general (half-integers via the even square root of the
    Berezinian).
    """

    chart: Chart
    coefficient: SuperFunction
    weight: Fraction

    def __post_init__(self) -> None:
        if self.coefficient.chart != self.chart:
            raise ChartMismatch("density coefficient must live on the stated chart")
        object.__setattr__(self, "weight", Fraction(self.weight))

    @classmethod
    def semidensity(cls, coefficient: SuperFunction) -> "Density":
        return cls(coefficient.chart, coefficient, Fraction(1, 2))

    @classmethod
    def volume(cls, coefficient: SuperFunction) -> "Density":
        return cls(coefficient.chart, coefficient, Fraction(1))

    def scale(self, factor) -> "Density":
        return Density(self.chart, self.coefficient * factor, self.weight)

    def __add__(self, other: "Density") -> "Density":
        if not isinstance(other, Density):
            return NotImplemented
        if other.chart != self.chart or other.weight != self.weight:
            raise ChartMismatch("can only add densities of equal chart and weight")
        return Density(self.chart, self.coefficient + other.coefficient, self.weight)

    def __sub__(self, other: "Density") -> "Density":
        return self + other.scale(-1)


def _require_semidensity(density: Density) -> None:
    """Refuse a density whose weight is not one-half."""
    if density.weight != Fraction(1, 2):
        raise ValueError(f"expected a semidensity (weight 1/2), got weight {density.weight}")


def transform_density(density: Density, transition: Transition) -> Density:
    """Push a density through a transition: substitution times ``Ber^weight``."""
    if density.chart != transition.source:
        raise ChartMismatch("density does not live on the transition's source chart")
    moved = transition.apply(density.coefficient)
    w = density.weight
    if w == 0:
        factor = SuperFunction.one(transition.target)
    elif w.denominator == 1:
        factor = berezinian(transition) ** w.numerator
    elif w.denominator == 2:
        factor = sqrt_berezinian(transition) ** w.numerator
    else:
        raise ValueError("only integer and half-integer density weights transform")
    return Density(transition.target, moved * factor, w)


def canonical_delta(density: Density) -> Density:
    """The odd Laplacian on semidensities: ``Delta_0`` on the coefficient."""
    _require_semidensity(density)
    return Density(density.chart, delta0(density.coefficient), density.weight)


def lie_derivative_density(f: SuperFunction, density: Density) -> Density:
    """Lie derivative of a semidensity along the Hamiltonian field of ``f``.

    Defined as the commutator ``[Delta, f]`` acting on semidensities; on
    coefficients ``(Delta_0 f) s + (-1)^{p(f)} {f, s}``, extended to mixed
    parity by linearity as ``(Delta_0 f) s + {f~, s}`` with
    ``f~ = f_even - f_odd``.
    """
    _require_semidensity(density)
    s = density.coefficient
    out = delta0(f) * s + odd_poisson_bracket(_twisted(f), s)
    return Density(density.chart, out, density.weight)


# -- flows -----------------------------------------------------------------------------


def exponentiate_hamiltonian(
    q: SuperFunction, time: SuperFunction | ScalarLike
) -> Transition:
    """The time-``t`` flow of the Hamiltonian derivation of ``q``.

    Images are the exponential series ``sum_k (t^k / k!) D_q^k(z)``.  The
    combined generator must be odd (``p(t) + p(q) = 1``) so the flow is a
    parity-preserving coordinate change; the series must terminate within
    :data:`MAX_FLOW_STEPS` applications (nilpotency), else
    :class:`~oddsymplectic.errors.NonTerminatingFlow` is raised.
    """
    chart = q.chart
    if not isinstance(time, SuperFunction):
        time = SuperFunction.from_scalar(chart, time)
    elif time.chart != chart:
        raise ChartMismatch("flow time must live on the Hamiltonian's chart")
    for name in chart.even_coords + chart.odd_coords:
        if not time.derivative(name).is_zero():
            raise ParityViolation("flow time must be a constant on the chart")
    pq = q.parity_or_raise("flow Hamiltonian")
    pt = time.parity_or_raise("flow time")
    if (pq + pt) & 1 != 1:
        raise ParityViolation(
            "the generator t*q of a flow must be odd (p(t) + p(q) = 1)"
        )
    d_q = _hamiltonian_derivation(q)
    images: dict[str, SuperFunction] = {}
    for name in chart.even_coords + chart.odd_coords:
        term = SuperFunction.generator(chart, name)
        total = term
        t_power = SuperFunction.one(chart)
        factorial = 1
        for k in range(1, MAX_FLOW_STEPS + 1):
            term = _apply_derivation(d_q, term)
            if term.is_zero():
                break
            t_power = t_power * time
            if t_power.is_zero():
                break
            factorial *= k
            total = total + (t_power * term).scale(Fraction(1, factorial))
        else:
            raise NonTerminatingFlow(
                f"flow series for {name!r} did not terminate in {MAX_FLOW_STEPS} steps"
            )
        images[name] = total
    return Transition(chart, chart, images)


# -- normality ----------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """Which candidate transitions normalise a volume element."""

    normalising: tuple[int, ...]
    delta_on_root: SuperFunction
    root_is_closed: bool

    @property
    def found(self) -> bool:
        return bool(self.normalising)


def is_normal(
    density: Density, candidates: Iterable[Transition] = ()
) -> NormalityReport:
    """Report candidates sending a weight-one density to the constant one.

    Also evaluates the necessary condition ``Delta_0(sqrt rho) = 0`` (the
    square-root semidensity must be closed for a normalising system of
    coordinates to exist).
    """
    if density.weight != 1:
        raise ValueError("normality is a property of volume densities (weight 1)")
    root = density.coefficient.sqrt_even()
    closed = delta0(root)
    winners: list[int] = []
    for index, transition in enumerate(candidates):
        moved = transform_density(density, transition)
        if moved.coefficient == SuperFunction.one(transition.target):
            winners.append(index)
    return NormalityReport(
        normalising=tuple(winners),
        delta_on_root=closed,
        root_is_closed=closed.is_zero(),
    )
