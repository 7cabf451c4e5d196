"""Named batches of exact identity checks, deterministic for a given seed.

Each identity is one sampling-and-checking function ``check(index)``: it
draws its own seeded random samples (or builds a frozen pinned example),
evaluates the identity at exact equality, and returns ``None`` or a witness
string.  :func:`_item` calls it for ``index = 0, 1, ...`` until the first
witness and reports one line per identity tag.  The same batches back the
command-line ``suite`` subcommand, whose ``--count`` is bounded by
:data:`MAX_COUNT`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from random import Random
from typing import Any, Callable

from . import brackets, charts, derived, forms, laplacians, master, sampling
from .charts import Density, Transition
from .expressions import DEFAULT_COUNT, MAX_COUNT, SUITE_NAMES
from .laplacians import VolumeForm
from .superalgebra import Chart, SuperFunction


@dataclass(frozen=True)
class SuiteItem:
    """One identity, the number of exact checks run, and the outcome."""

    tag: str
    description: str
    checked: int
    passed: bool
    witness: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.tag}: {self.description} ({self.checked} checks)"
        if not self.passed and self.witness:
            text += f" -- witness: {self.witness}"
        return text

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    dimension: int
    seed: int
    count: int
    items: tuple[SuiteItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        header = (
            f"suite {self.name} (n={self.dimension}, seed={self.seed}, "
            f"count={self.count})"
        )
        footer = "all identities hold" if self.passed else "FAILURES detected"
        return [header] + [item.line() for item in self.items] + [footer]

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.name,
            "n": self.dimension,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def _item(
    tag: str, description: str, cases: int, check: Callable[[int], str | None]
) -> SuiteItem:
    """Run ``check(index)`` for each case until it returns a witness string."""
    for index in range(cases):
        witness = check(index)
        if witness is not None:
            return SuiteItem(tag, description, index + 1, False, witness)
    return SuiteItem(tag, description, cases, True)


# -- axioms -------------------------------------------------------------------------


def _axiom_items(n: int, rng: Random, count: int) -> list[SuiteItem]:
    chart = sampling.default_chart(n)
    triples = [
        tuple(
            sampling.random_superfunction(rng, chart, parity=rng.randint(0, 1))
            for _ in range(3)
        )
        for _ in range(count)
    ]
    report = derived.check_axioms(brackets.odd_poisson_bracket, 1, triples=triples)

    def item(tag: str, description: str, ok: bool, prefix: str) -> SuiteItem:
        """The axiom's item; a failure's witness is its own first two messages."""
        own = [message for message in report.failures if message.startswith(prefix)]
        witness = "" if ok else "; ".join(own[:2])
        return SuiteItem(tag, description, report.triples_checked, ok, witness)

    return [
        item(
            "bracket-parity-shift",
            "the bracket of homogeneous arguments shifts parity by one",
            report.parity_ok,
            "parity:",
        ),
        item(
            "bracket-shifted-antisymmetry",
            "graded antisymmetry holds with both parities shifted by one",
            report.antisymmetry_ok,
            "antisymmetry",
        ),
        item(
            "bracket-left-leibniz",
            "the bracket differentiates pointwise products on the right slot",
            report.leibniz_ok,
            "Leibniz",
        ),
        item(
            "bracket-shifted-jacobi",
            "the graded Jacobi identity holds with shifted parities",
            report.jacobi_ok,
            "Jacobi",
        ),
    ]


# -- laplacian ----------------------------------------------------------------------


def _laplacian_items(n: int, rng: Random, count: int) -> list[SuiteItem]:
    chart = sampling.default_chart(n)

    def squares_to_zero(index: int) -> str | None:
        f = sampling.random_superfunction(rng, chart)
        defect = laplacians.delta0(laplacians.delta0(f))
        return None if defect.is_zero() else f"f = {f}"

    def semidensity_squares(index: int) -> str | None:
        s = sampling.random_semidensity(rng, chart)
        twice = charts.canonical_delta(charts.canonical_delta(s))
        return None if twice.coefficient.is_zero() else f"s = {s.coefficient}"

    def product_rule(index: int) -> str | None:
        volume = sampling.random_volume(rng, chart, degree=2, rational=index % 3 == 0)
        parity = rng.randint(0, 1)
        f = sampling.random_superfunction(rng, chart, degree=2, parity=parity)
        g = sampling.random_superfunction(rng, chart, degree=2)
        sign = -1 if parity else 1
        lhs = laplacians.delta_rho(volume, f * g)
        rhs = (
            laplacians.delta_rho(volume, f) * g
            + brackets.odd_poisson_bracket(f, g).scale(sign)
            + (f * laplacians.delta_rho(volume, g)).scale(sign)
        )
        return None if lhs == rhs else f"f = {f}; g = {g}"

    def bracket_preservation(index: int) -> str | None:
        volume = sampling.random_square_volume(rng, chart, degree=2)
        parity = rng.randint(0, 1)
        f = sampling.random_superfunction(rng, chart, degree=2, parity=parity)
        g = sampling.random_superfunction(rng, chart, degree=2)
        sign = -1 if (parity + 1) & 1 else 1
        lhs = laplacians.delta_rho(volume, brackets.odd_poisson_bracket(f, g))
        first = brackets.odd_poisson_bracket(laplacians.delta_rho(volume, f), g)
        second = brackets.odd_poisson_bracket(f, laplacians.delta_rho(volume, g))
        rhs = first + second.scale(sign)
        return None if lhs == rhs else f"f = {f}; g = {g}"

    def divergence_match(index: int) -> str | None:
        volume = sampling.random_volume(rng, chart, degree=2)
        parity = rng.randint(0, 1)
        f = sampling.random_superfunction(rng, chart, degree=2, parity=parity)
        lhs = laplacians.divergence(volume, f)
        rhs = laplacians.delta_rho(volume, f).scale(-2 if parity else 2)
        return None if lhs == rhs else f"f = {f}"

    def squared_is_bracket(index: int) -> str | None:
        volume = sampling.random_square_volume(rng, chart, degree=2)
        f = sampling.random_superfunction(rng, chart, degree=2)
        root = volume.sqrt()
        hamiltonian = laplacians.delta0(root) * root.invert()
        lhs = laplacians.delta_rho_squared(volume, f)
        rhs = brackets.odd_poisson_bracket(hamiltonian, f)
        return None if lhs == rhs else f"f = {f}"

    def cocycle(index: int) -> str | None:
        volume = sampling.random_volume(rng, chart, degree=2)
        factor_root = sampling.random_volume(rng, chart, degree=1).coefficient
        other = volume.rescale(factor_root * factor_root)
        f = sampling.random_superfunction(rng, chart, degree=2)
        hamiltonian = laplacians.modular_hamiltonian(volume, other)
        squared = laplacians.delta_rho_squared
        lhs = squared(other, f) - squared(volume, f)
        rhs = brackets.odd_poisson_bracket(hamiltonian, f)
        return None if lhs == rhs else f"f = {f}"

    return [
        _item(
            "flat-laplacian-squares-to-zero",
            "the coordinate Laplacian is nilpotent on functions",
            count,
            squares_to_zero,
        ),
        _item(
            "semidensity-laplacian-squares-to-zero",
            "the canonical Laplacian on half-densities is nilpotent",
            count,
            semidensity_squares,
        ),
        _item(
            "weighted-laplacian-product-rule",
            "the weighted Laplacian deviates from a derivation by the bracket",
            count,
            product_rule,
        ),
        _item(
            "weighted-laplacian-preserves-bracket",
            "the weighted Laplacian is a derivation of the odd bracket",
            count,
            bracket_preservation,
        ),
        _item(
            "divergence-is-twice-laplacian",
            "the weighted divergence equals twice the signed weighted Laplacian",
            count,
            divergence_match,
        ),
        _item(
            "squared-laplacian-is-root-quotient-bracket",
            "the squared weighted Laplacian is the bracket with the root's quotient",
            count,
            squared_is_bracket,
        ),
        _item(
            "modular-cocycle-between-volumes",
            "squared weighted Laplacians of two volumes differ by a modular bracket",
            count,
            cocycle,
        ),
    ]


# -- bv -----------------------------------------------------------------------------


def _bv_items(n: int, rng: Random, count: int) -> list[SuiteItem]:
    chart = sampling.default_chart(n, externals=("eps1",))
    roster = sampling.transition_roster(rng, chart, count=count)

    def preserves_bracket(index: int) -> str | None:
        t = roster[index]
        if charts.is_symplectomorphism(t):
            return None
        return f"images: { {k: str(v) for k, v in sorted(t.images.items())} }"

    def root_is_closed(index: int) -> str | None:
        defect = charts.bv_identity(roster[index])
        return None if defect.is_zero() else f"defect: {defect}"

    def equivariance(index: int) -> str | None:
        f = sampling.random_superfunction(rng, chart, degree=2)
        defect = charts.laplacian_conjugation_defect(roster[index], f)
        return None if defect.is_zero() else f"f = {f}"

    def transport_cocycle(index: int) -> str | None:
        first = roster[rng.randrange(len(roster))]
        second = roster[rng.randrange(len(roster))]
        s = sampling.random_semidensity(rng, chart, degree=2)
        stepwise = charts.transform_density(charts.transform_density(s, first), second)
        direct = charts.transform_density(s, first.compose(second))
        return None if stepwise == direct else f"s = {s.coefficient}"

    def scaling_example(index: int) -> str | None:
        line = Chart.darboux(1)
        value = charts.berezinian(Transition.scaling(line, line, [2]))
        expected = SuperFunction.one(line).scale(4)
        return None if value == expected else f"berezinian = {value}"

    return [
        _item(
            "transition-preserves-bracket",
            "every sampled transition is a canonical coordinate change",
            len(roster),
            preserves_bracket,
        ),
        _item(
            "square-root-berezinian-is-closed",
            "the square-root Berezinian is annihilated by the coordinate Laplacian",
            len(roster),
            root_is_closed,
        ),
        _item(
            "laplacian-transform-equivariance",
            "transforming then applying the Laplacian matches the conjugated law",
            len(roster),
            equivariance,
        ),
        _item(
            "half-density-transport-cocycle",
            "transporting a half-density through a composition matches two steps",
            max(count // 2, 1),
            transport_cocycle,
        ),
        _item(
            "berezinian-diagonal-scaling-example",
            "doubling the even line coordinate has Berezinian four",
            1,
            scaling_example,
        ),
    ]


# -- fourier ------------------------------------------------------------------------


def _fourier_items(n: int, rng: Random, count: int) -> list[SuiteItem]:
    fchart = Chart.forms(n)
    dchart = forms.darboux_partner(fchart)

    def round_trip(index: int) -> str | None:
        omega = sampling.random_superfunction(rng, fchart)
        s = sampling.random_semidensity(rng, dchart)
        if forms.semidensity_to_form(forms.form_to_semidensity(omega)) != omega:
            return f"omega = {omega}"
        again = forms.form_to_semidensity(forms.semidensity_to_form(s))
        return None if again == s else f"s = {s.coefficient}"

    def intertwine(index: int) -> str | None:
        omega = sampling.random_superfunction(rng, fchart)
        lhs = charts.canonical_delta(forms.form_to_semidensity(omega))
        rhs = forms.form_to_semidensity(forms.de_rham(omega))
        return None if lhs == rhs else f"omega = {omega}"

    def de_rham_squares(index: int) -> str | None:
        omega = sampling.random_superfunction(rng, fchart)
        twice = forms.de_rham(forms.de_rham(omega))
        return None if twice.is_zero() else f"omega = {omega}"

    def contraction(index: int) -> str | None:
        omega = sampling.random_superfunction(rng, fchart)
        k = rng.randint(1, n)
        theta = SuperFunction.generator(dchart, f"th{k}")
        lhs = Density.semidensity(theta * forms.form_to_semidensity(omega).coefficient)
        rhs = forms.form_to_semidensity(omega.partial_odd(f"xi{k}"))
        return None if lhs == rhs else f"omega = {omega}; index = {k}"

    return [
        _item(
            "parity-transform-round-trip",
            "the form-to-semidensity transform and its inverse compose to identity",
            count,
            round_trip,
        ),
        _item(
            "transform-intertwines-derivative",
            "the canonical Laplacian matches the exterior derivative across the transform",
            count,
            intertwine,
        ),
        _item(
            "de-rham-squares-to-zero",
            "the exterior derivative on form avatars is nilpotent",
            count,
            de_rham_squares,
        ),
        _item(
            "odd-multiplication-is-contraction",
            "multiplying the image by an odd coordinate contracts the source form",
            count,
            contraction,
        ),
    ]


# -- master -------------------------------------------------------------------------


def _master_items(n: int, rng: Random, count: int) -> list[SuiteItem]:
    chart = sampling.default_chart(n, externals=("eps1",))

    def exponential_identity(index: int) -> str | None:
        g = sampling.random_nilpotent_even(rng, chart)
        exponential = master.nilpotent_exponential(g)
        residual = master.exp_identity_residual(g)
        lhs = laplacians.delta0(exponential)
        return None if lhs == residual * exponential else f"g = {g}"

    def hbar_limit(index: int) -> str | None:
        action = sampling.random_superfunction(rng, chart, parity=0)
        quantum = master.quantum_master_residual(action)
        pieces = quantum.coefficients_in_param(master.HBAR)
        zero_order = pieces.get(0, SuperFunction.zero(chart))
        classical = master.classical_master_residual(action)
        return None if zero_order == classical else f"S = {action}"

    def exactness(index: int) -> str | None:
        r = sampling.random_semidensity(rng, chart)
        report = master.semidensity_master_check(charts.canonical_delta(r), candidate=r)
        exact = report.closed and report.exact_matches
        return None if exact else f"r = {r.coefficient}"

    def proportionality_chain(index: int) -> str | None:
        """Case 0: flat volume; 1: closed witness root; 2: nonconstant quotient."""
        if index == 0:
            report = master.nu_constant(VolumeForm.standard(chart))
            return None if report.nu.is_zero() and report.root_closed else "flat volume"
        x1 = SuperFunction.generator(chart, "x1")
        th1 = SuperFunction.generator(chart, "th1")
        eps = SuperFunction.generator(chart, "eps1")
        if index == 1:
            root = SuperFunction.one(chart) - x1 * th1 * eps
            volume = VolumeForm(chart, root * root)
            report = master.nu_constant(volume)
            if report.root_closed:
                return "witness root reported closed"
            if report.nu != -eps:
                return f"nu = {report.nu}"
            for _ in range(3):
                f = sampling.random_superfunction(rng, chart, degree=2)
                if not laplacians.delta_rho_squared(volume, f).is_zero():
                    return f"f = {f}"
            return None
        if n >= 2:
            x2 = SuperFunction.generator(chart, "x2")
            th2 = SuperFunction.generator(chart, "th2")
            root = SuperFunction.one(chart) + x1 * x2 * th1 * th2
        else:
            root = SuperFunction.one(chart) + x1 * x1 * th1 * eps
        volume = VolumeForm(chart, root * root)
        try:
            master.nu_constant(volume)
        except master.NotProportional as error:
            for _ in range(3):
                f = sampling.random_superfunction(rng, chart, degree=2)
                lhs = laplacians.delta_rho_squared(volume, f)
                if lhs != brackets.odd_poisson_bracket(error.hamiltonian, f):
                    return f"f = {f}"
            return None
        return "nonconstant quotient was not reported"

    def zero_form_constant(index: int) -> str | None:
        plane = Chart.darboux(2)
        c = rng.choice((1, 2, 3))
        th1 = SuperFunction.generator(plane, "th1")
        th2 = SuperFunction.generator(plane, "th2")
        root = SuperFunction.one(plane) + (th1 * th2).scale(c)
        expected = SuperFunction.one(forms.forms_partner(plane)).scale(c)
        report = master.nu_constant(VolumeForm(plane, root * root))
        if not report.root_closed:
            return "root not closed"
        if report.zero_form_constant != expected:
            return f"constant = {report.zero_form_constant}"
        return None

    return [
        _item(
            "exponential-laplacian-identity",
            "the Laplacian of a nilpotent exponential factors through the residual",
            count,
            exponential_identity,
        ),
        _item(
            "quantum-classical-limit-consistency",
            "the order-zero quantum residual is the classical residual",
            count,
            hbar_limit,
        ),
        _item(
            "exact-semidensities-are-closed",
            "Laplacian images of half-densities satisfy the closedness condition",
            count,
            exactness,
        ),
        _item(
            "constant-proportionality-chain",
            "closed roots give zero constants, witnesses give external constants, "
            "and nonconstant quotients reproduce the squared Laplacian",
            3,
            proportionality_chain,
        ),
        _item(
            "closed-root-zero-form-constant",
            "a closed root's form avatar carries the expected constant component",
            1,
            zero_form_constant,
        ),
    ]


# -- driver -------------------------------------------------------------------------


_BUILDERS: dict[str, Callable[[int, Random, int], list[SuiteItem]]] = {
    "axioms": _axiom_items,
    "laplacian": _laplacian_items,
    "bv": _bv_items,
    "fourier": _fourier_items,
    "master": _master_items,
}


def run_suite(
    name: str, n: int = 2, seed: int = 0, count: int = DEFAULT_COUNT
) -> SuiteReport:
    """Run one named suite (or ``all``) at the given dimension and seed.

    Every named suite draws from its own ``Random(seed)``, so ``all`` is the
    concatenation of the named suites' items.
    """
    if name not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}"
        )
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be between 1 and {MAX_COUNT}, got {count}")
    names = SUITE_NAMES[:-1] if name == "all" else (name,)
    items = [item for sub in names for item in _BUILDERS[sub](n, Random(seed), count)]
    return SuiteReport(name, n, seed, count, tuple(items))
