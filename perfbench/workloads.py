"""Seeded inputs and verified operations for the benchmark's workloads.

Every input is generated here from the workload seed, through the library's
public constructors only (``parse_expression``, ``SuperFunction.generator``,
``Chart.darboux``/``Chart.forms``, ``Transition.point``/``shift_one_form``,
``exponentiate_hamiltonian`` and ``compose``).  The library's own
``sampling`` module is never used, so changes to it cannot move the
workloads.

An operation is one exact check: the axioms on a batch of triples, the form
bridge on one form, one Laplacian or transition identity (or, in
``cli-cold``, one command line).  ``Op.run`` returns ``True`` only when every
identity holds as an exact equality or literal zero; anything else counts as
a failure.

The library module is passed in as ``lib`` rather than imported here, so the
harness can re-import the package to time set-up more than once.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from layertrace import TRACE_MARKER

WORKLOADS = ("flat-brackets", "rational-laplacian", "transitions", "cli-cold")

COEFFICIENTS = (-3, -2, -1, 1, 2, 3)

# Groups of flat-brackets operations, and rounds of transitions per
# dimension: enough distinct operations that each repeats only a few times
# in a run.
GROUPS = 36
ROUNDS = 3


@dataclass(frozen=True)
class Op:
    """One verified operation: ``run()`` is True when the result is right."""

    kind: str
    tag: str
    run: Callable[[], bool]


@dataclass
class Workload:
    """A workload's operations, built from one seed."""

    ops: list[Op]
    # Set for cli-cold, whose operations run child processes through it.
    runner: "CliRunner | None" = None

    def warm_up_ops(self) -> list[Op]:
        """One operation per kind (one in all for cli-cold): fills caches."""
        if self.runner is not None:
            return self.ops[:1]
        first: dict[str, Op] = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        return list(first.values())


class Sampler:
    """Expression-text generator: a fixed catalogue of shapes, seeded values.

    Which generators and odd monomials appear, and how many terms and of
    which degrees, come from ``shape``, a generator with a fixed salt; the
    workload seed draws the coefficients and signs through ``rng``.  Every
    seed therefore gives different inputs of the same shapes, and an
    operation's cost depends on the seed only through its coefficients,
    which keeps a run's cost steady from seed to seed.
    """

    def __init__(self, seed: int, salt: str) -> None:
        # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
        self.shape = random.Random(f"{salt}:shape")
        self.rng = random.Random(f"{salt}:{seed}")

    def coefficient(self) -> int:
        return self.rng.choice(COEFFICIENTS)

    def monomial(self, evens: tuple[str, ...], degree: int) -> list[str]:
        return [self.shape.choice(evens) for _ in range(degree)]

    def term(self, factors: list[str]) -> str:
        coeff = self.coefficient()
        body = "*".join([str(abs(coeff))] + factors)
        return ("-" if coeff < 0 else "") + body

    @staticmethod
    def join(terms: list[str]) -> str:
        text = terms[0]
        for t in terms[1:]:
            text += " - " + t[1:] if t.startswith("-") else " + " + t
        return text

    def poly(self, evens: tuple[str, ...], degrees: tuple[int, ...]) -> str:
        """A polynomial with one term per entry of ``degrees``."""
        return self.join([self.term(self.monomial(evens, d)) for d in degrees])

    def superfunction(
        self,
        evens: tuple[str, ...],
        odds: tuple[str, ...],
        shape: tuple[tuple[int, int], ...],
    ) -> str:
        """One term per ``(even degree, odd degree)`` entry of ``shape``."""
        terms = []
        for degree, k in shape:
            factors = self.monomial(evens, degree) + sorted(self.shape.sample(odds, k))
            terms.append(self.term(factors))
        return self.join(terms)


# -- flat-brackets ------------------------------------------------------------------


def _monomial_basis(lib, chart) -> list[Any]:
    """x-monomials of degree <= 2 times every theta-monomial at n = 2 (24)."""
    gen = lib.SuperFunction.generator
    one = lib.SuperFunction.one(chart)
    xs = [gen(chart, n) for n in chart.even_coords]
    evens = [one] + xs + [a * b for i, a in enumerate(xs) for b in xs[i:]]
    odd_monomials = [one]
    for name in chart.odd_coords:
        odd_monomials += [m * gen(chart, name) for m in odd_monomials]
    return [e * m for m in odd_monomials for e in evens]


def _axioms_op(lib, tag, triples) -> Op:
    def run() -> bool:
        report = lib.check_axioms(lib.odd_poisson_bracket, 1, triples=triples)
        return report.all_ok and report.triples_checked == len(triples)

    return Op("axioms", tag, run)


def _forms_op(lib, omega) -> Op:
    """The bridge on one form: the round trip and ``d`` <-> ``Delta``."""

    def run() -> bool:
        density = lib.form_to_semidensity(omega)
        if lib.semidensity_to_form(density) != omega:
            return False
        return lib.canonical_delta(density) == lib.form_to_semidensity(lib.de_rham(omega))

    return Op("forms-bridge", "n4", run)


def _master_op(lib, actions) -> Op:
    """The hbar^0 and hbar^1 parts of quantum residuals, checked independently."""

    def run() -> bool:
        for s0, s1 in actions:
            hbar = lib.SuperFunction.generator(s0.chart, "hbar")
            zero = lib.SuperFunction.zero(s0.chart)
            action = s0 + hbar * s1
            pieces = lib.quantum_master_residual(action).coefficients_in_param("hbar")
            if pieces.get(0, zero) != lib.classical_master_residual(action):
                return False
            first = lib.delta0(s0).scale(-4) + lib.odd_poisson_bracket(s0, s1).scale(2)
            if pieces.get(1, zero) != first:
                return False
        return True

    return Op("master-consistency", "even-action", run)


def build_flat_brackets(lib, seed: int) -> list[Op]:
    """Operations of about 20-30 ms: the cheap checks come in batches, so a
    run holds few enough samples that its tail is set by the inputs."""
    s = Sampler(seed, "flat-brackets")
    parse = lib.parse_expression
    basis = _monomial_basis(lib, lib.Chart.darboux(2))
    chart3 = lib.Chart.darboux(3)
    forms4 = lib.Chart.forms(4)
    evens3, odds3 = chart3.even_coords, chart3.odd_coords
    ops: list[Op] = []
    for _ in range(GROUPS):
        batch = [tuple(s.shape.choice(basis) for _ in range(3)) for _ in range(12)]
        ops.append(_axioms_op(lib, "basis-n2", batch))
        triples = [
            tuple(
                parse(s.superfunction(evens3, odds3, ((1, p), (2, p), (1, p + 2))), chart3)
                for p in (s.shape.randrange(2) for _ in range(3))
            )
            for _ in range(2)
        ]
        ops.append(_axioms_op(lib, "random-n3", triples))
        omega = parse(
            s.superfunction(
                forms4.even_coords, forms4.fiber_odds, ((1, 0), (2, 1), (1, 2), (1, 3), (0, 4))
            ),
            forms4,
        )
        ops.append(_forms_op(lib, omega))
        actions = [
            (
                parse(s.superfunction(evens3, odds3, ((2, 0), (1, 2), (2, 2))), chart3),
                parse(s.superfunction(evens3, odds3, ((1, 0), (1, 2))), chart3),
            )
            for _ in range(6)
        ]
        ops.append(_master_op(lib, actions))
    return ops


# -- rational-laplacian -------------------------------------------------------------


def _volume_texts(s: Sampler, gaussian: bool) -> tuple[str, str]:
    """A volume coefficient with a rational body, and an even root ``r``.

    The body denominators are ``1 + a*x1^2 + b*x2^3``-shaped, so bodies stay
    invertible at the origin.  Gaussian numerators are ``c*I`` or
    ``c + d*I*x1``; real ones are plain integers.
    """
    a, b, c, d = (s.rng.randint(1, 3) for _ in range(4))
    den = f"(1 + {a}*x1^2 + {b}*x2^3)"
    if not gaussian:
        num = str(s.coefficient())
    elif s.shape.randrange(2):
        num = f"{s.coefficient()}*I"
    else:
        num = f"({c} + {d}*I*x1)"
    soul = s.superfunction(("x1", "x2"), ("th1", "th2"), ((1, 2),))
    volume = f"{num}/{den} + {soul}"
    e = s.rng.randint(1, 3)
    root_den = f"(1 + {e}*x2^2)"
    root_num = f"({c} + {d}*I*x1)" if gaussian else str(s.coefficient())
    root = f"{root_num}/{root_den} + {s.superfunction(('x1', 'x2'), ('th1', 'th2'), ((1, 2),))}"
    return volume, root


def _laplacian_ops(lib, tag, volume, square, root, f, g) -> list[Op]:
    # Library functions are looked up at call time, so a traced run sees them.
    sign = -1 if f.parity_or_raise() else 1

    def product_rule() -> bool:
        return lib.delta_rho(volume, f * g) == (
            lib.delta_rho(volume, f) * g
            + lib.odd_poisson_bracket(f, g).scale(sign)
            + (f * lib.delta_rho(volume, g)).scale(sign)
        )

    def bracket_preservation() -> bool:
        return lib.delta_rho(volume, lib.odd_poisson_bracket(f, g)) == (
            lib.odd_poisson_bracket(lib.delta_rho(volume, f), g)
            + lib.odd_poisson_bracket(f, lib.delta_rho(volume, g)).scale(-sign)
        )

    def squared_is_hamiltonian() -> bool:
        hamiltonian = root.invert() * lib.delta0(root)
        return lib.delta_rho_squared(square, f) == lib.odd_poisson_bracket(hamiltonian, f)

    return [
        Op("product-rule", tag, product_rule),
        Op("bracket-preservation", tag, bracket_preservation),
        Op("squared-hamiltonian", tag, squared_is_hamiltonian),
    ]


def build_rational_laplacian(lib, seed: int) -> list[Op]:
    s = Sampler(seed, "rational-laplacian")
    chart = lib.Chart.darboux(2)
    parse = lib.parse_expression
    evens, odds = chart.even_coords, chart.odd_coords
    ops: list[Op] = []
    for index in range(16):
        gaussian = bool(index & 1)
        volume_text, root_text = _volume_texts(s, gaussian)
        volume = lib.VolumeForm(chart, parse(volume_text, chart))
        root = parse(root_text, chart)
        square = lib.VolumeForm(chart, root * root)
        p = index >> 1 & 1
        f = parse(s.superfunction(evens, odds, ((1, p), (2, p))), chart)
        g = parse(s.superfunction(evens, odds, ((1, 0), (1, 1), (2, 2))), chart)
        tag = "gaussian" if gaussian else "real"
        ops.extend(_laplacian_ops(lib, tag, volume, square, root, f, g))
    return ops


# -- transitions ----------------------------------------------------------------------

EXTERNALS = ("eps1", "eps2")


def _point_map(lib, s: Sampler, chart, n: int, bend: bool):
    """Cotangent lift of a base map with invertible-body Jacobian.

    A triangular map adds to each ``x_i`` a polynomial in later coordinates,
    so the Jacobian is unitriangular; a bent map adds ``±x_i^2`` to one
    coordinate, which gives rational odd images and a Berezinian that is a
    nontrivial perfect square.
    """
    xs = chart.even_coords
    phi = []
    bent = s.shape.randrange(n)
    for i, x in enumerate(xs):
        text = x
        if bend and i == bent:
            text += f" {'+' if s.rng.randrange(2) else '-'} {x}^2"
        elif not bend and i < n - 1:
            text += " + " + s.poly(xs[i + 1 :], (2,))
        phi.append(lib.parse_expression(text, chart))
    return lib.Transition.point(chart, chart, phi)


def _shift(lib, s: Sampler, chart, n: int):
    """An exact odd one-form shift ``th_j -> th_j + d_j(sum_k eps_k p_k(x))``."""
    potential = " + ".join(
        f"{eps}*({s.poly(chart.even_coords, (1, 2))})" for eps in EXTERNALS
    )
    phi = lib.parse_expression(potential, chart)
    alpha = [phi.derivative(x) for x in chart.even_coords]
    return lib.Transition.shift_one_form(chart, chart, alpha)


def _flow(lib, s: Sampler, chart, n: int):
    """The exact flow of an odd Hamiltonian cubic in the theta (terminates)."""
    odds = chart.odd_coords
    terms = []
    for _ in range(2):
        i, j, k = sorted(s.shape.sample(range(n), 3))
        poly = s.poly(chart.even_coords, (0, 1))
        terms.append(f"({poly})*{odds[i]}*{odds[j]}*{odds[k]}")
    eps = s.shape.choice(EXTERNALS)
    i, j = sorted(s.shape.sample(range(n), 2))
    terms.append(f"{eps}*({s.poly(chart.even_coords, (1,))})*{odds[i]}*{odds[j]}")
    q = lib.parse_expression(" + ".join(terms), chart)
    time = s.rng.choice((1, -1, 2, Fraction(1, 2)))
    return lib.exponentiate_hamiltonian(q, time)


def _transition_ops(lib, tag, t1, t2, s1, s2) -> list[Op]:
    def symplectomorphism() -> bool:
        return lib.is_symplectomorphism(t1)

    def bv_identity() -> bool:
        return lib.bv_identity(t1).is_zero()

    def equivariance() -> bool:
        left = lib.canonical_delta(lib.transform_density(s1, t1))
        return left == lib.transform_density(lib.canonical_delta(s1), t1)

    def cocycle() -> bool:
        both = lib.transform_density(s2, t1.compose(t2))
        return both == lib.transform_density(lib.transform_density(s2, t1), t2)

    return [
        Op("symplectomorphism", tag, symplectomorphism),
        Op("bv-identity", tag, bv_identity),
        Op("equivariance", tag, equivariance),
        Op("cocycle", tag, cocycle),
    ]


def build_transitions(lib, seed: int) -> list[Op]:
    s = Sampler(seed, "transitions")
    # Each transition is composed with the next kind in this cycle.
    kinds = ("point", "shift", "flow", "bent")
    ops: list[Op] = []
    for _ in range(ROUNDS):
        for n in (3, 4, 5):
            chart = lib.Chart.darboux(n, externals=EXTERNALS)
            evens, odds = chart.even_coords, chart.odd_coords
            for index in range(4):
                built = []
                for kind in (kinds[index], kinds[(index + 1) % 4]):
                    if kind == "shift":
                        built.append(_shift(lib, s, chart, n))
                    elif kind == "flow":
                        built.append(_flow(lib, s, chart, n))
                    else:
                        built.append(_point_map(lib, s, chart, n, kind == "bent"))
                shape = ((1, 0), (1, 1), (1, 2))
                densities = [
                    lib.Density.semidensity(
                        lib.parse_expression(s.superfunction(evens, odds, shape), chart)
                    )
                    for _ in range(2)
                ]
                ops.extend(_transition_ops(lib, f"n{n}-{kinds[index]}", *built, *densities))
    return ops


# -- cli-cold -------------------------------------------------------------------------

# The values the README pins for these command lines.
SCALING = {
    "source": {"name": "C", "evens": ["x1"], "odds": ["th1"]},
    "target": {"name": "P", "evens": ["x1"], "odds": ["th1"]},
    "images": {"x1": "2*x1", "th1": "1/2*th1"},
}
PINNED = (
    (("bracket", "x1", "th1"), ("1",)),
    (("laplace", "x1*x1*th1", "--rho", "1", "--n", "1"), ("2*x1",)),
    (("berezinian", "{scaling}"), ("4",)),
    (("fourier", "--n", "2", "1 + x1*xi1"), ("x1*th2 + th1*th2",)),
)


@dataclass
class CliRunner:
    """Runs ``python -m oddsymplectic`` children one at a time.

    With ``probe`` set, children run ``cli_probe.py`` instead, which installs
    the layer tracer in the child and reports its counters; the reports are
    collected in ``reports``.
    """

    root: Path
    probe: bool = False
    reports: list[dict[str, Any]] = field(default_factory=list)

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        path = env.get("PYTHONPATH")
        src = str(self.root / "src")
        env["PYTHONPATH"] = src if not path else src + os.pathsep + path
        return env

    def run(self, argv: list[str]) -> tuple[int, str]:
        if self.probe:
            prefix = [sys.executable, str(self.root / "perfbench" / "cli_probe.py")]
        else:
            prefix = [sys.executable, "-m", "oddsymplectic"]
        proc = subprocess.run(
            prefix + argv,
            cwd=self.root,
            env=self.env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if self.probe:
            for line in proc.stderr.splitlines():
                if line.startswith(TRACE_MARKER):
                    self.reports.append(json.loads(line[len(TRACE_MARKER) :]))
        return proc.returncode, proc.stdout


def _cli_op(runner: CliRunner, kind: str, argv: list[str], expected: list[str]) -> Op:
    def run() -> bool:
        code, stdout = runner.run(argv)
        return code == 0 and stdout.splitlines() == expected

    return Op(kind, "cli", run)


def _work_dir(root: Path) -> Path:
    return root / "perfbench" / ".work"


def clean_work_dir(root: Path) -> None:
    """Remove the files cli-cold writes for its child processes."""
    work = _work_dir(root)
    if work.is_dir():
        for path in work.iterdir():
            path.unlink()
        work.rmdir()


def build_cli_cold(lib, seed: int, root: Path) -> Workload:
    """Command lines with in-process references; transitions go to JSON files."""
    s = Sampler(seed, "cli-cold")
    fmt = lib.format_superfunction
    parse = lib.parse_expression
    work = _work_dir(root)
    work.mkdir(exist_ok=True)
    runner = CliRunner(root)

    def write(name: str, data: dict[str, Any]) -> str:
        path = work / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path.relative_to(root))

    scaling_file = write("scaling.json", SCALING)
    scaling = lib.transition_from_dict(SCALING)
    line = lib.Chart.darboux(1)
    pinned_refs = (
        fmt(lib.odd_poisson_bracket(*(lib.SuperFunction.generator(line, g) for g in ("x1", "th1")))),
        fmt(lib.delta_rho(lib.VolumeForm.standard(line), parse("x1*x1*th1", line))),
        fmt(lib.berezinian(scaling)),
        fmt(lib.form_to_semidensity(parse("1 + x1*xi1", lib.Chart.forms(2))).coefficient),
    )
    pinned = []
    for (argv, readme), computed in zip(PINNED, pinned_refs):
        if list(readme) != [computed]:
            raise RuntimeError(f"README value {readme} disagrees with the library: {computed}")
        argv = [scaling_file if a == "{scaling}" else a for a in argv]
        pinned.append(_cli_op(runner, argv[0], argv, list(readme)))

    chart = lib.Chart.darboux(2)
    forms = lib.Chart.forms(2)
    chart3 = lib.Chart.darboux(3)
    evens, odds = chart.even_coords, chart.odd_coords
    ops: list[Op] = []
    for variant in range(3):
        ops.extend(pinned)
        f = s.superfunction(evens, odds, ((1, 1), (2, 0)))
        g = s.superfunction(evens, odds, ((1, 1), (1, 2)))
        expected = fmt(lib.odd_poisson_bracket(parse(f, chart), parse(g, chart)))
        ops.append(_cli_op(runner, "bracket", ["bracket", f, g], [expected]))

        rho = f"{s.coefficient()}/(1 + {s.rng.randint(1, 3)}*x1^2) + " + s.superfunction(
            evens, odds, ((1, 2),)
        )
        expr = s.superfunction(evens, odds, ((1, 1), (2, 2)))
        volume = lib.VolumeForm(chart, parse(rho, chart))
        expected = fmt(lib.delta_rho(volume, parse(expr, chart)))
        ops.append(_cli_op(runner, "laplace", ["laplace", expr, "--rho", rho], [expected]))

        phi = [
            parse(f"x1 + {s.poly(('x2',), (2,))}", chart),
            parse("x2", chart),
        ]
        data = lib.transition_to_dict(lib.Transition.point(chart, chart, phi))
        path = write(f"transition-{variant}.json", data)
        transition = lib.transition_from_dict(data)
        ops.append(
            _cli_op(runner, "berezinian", ["berezinian", path], [fmt(lib.berezinian(transition))])
        )
        expr = s.superfunction(evens, odds, ((1, 1), (1, 0)))
        moved = lib.transform_density(lib.Density.semidensity(parse(expr, chart)), transition)
        ops.append(
            _cli_op(
                runner,
                "transform",
                ["transform", "--weight", "1/2", path, expr],
                [fmt(moved.coefficient)],
            )
        )
        checked = [
            f"canonical: {'yes' if lib.is_symplectomorphism(transition) else 'no'}",
            f"bracket defects: {len(lib.symplectomorphism_defects(transition))}",
            f"delta0(sqrt(Ber)): {fmt(lib.bv_identity(transition))}",
        ]
        ops.append(_cli_op(runner, "check-transition", ["check-transition", path], checked))

        form = s.superfunction(forms.even_coords, forms.fiber_odds, ((1, 0), (1, 1), (0, 2)))
        expected = fmt(lib.form_to_semidensity(parse(form, forms)).coefficient)
        ops.append(_cli_op(runner, "fourier", ["fourier", "--n", "2", form], [expected]))

        # x1 and hbar only, plus th2*th3: every bracket term pairs x_i with
        # th_i, so the action solves the quantum master equation.
        action = s.poly(("x1", "hbar"), (1, 2)) + f" + {abs(s.coefficient())}*th2*th3"
        residual = lib.quantum_master_residual(parse(action, chart3))
        expected_master = [
            f"residual: {fmt(residual)}",
            f"holds: {'yes' if residual.is_zero() else 'no'}",
        ]
        ops.append(
            _cli_op(
                runner,
                "check-master",
                ["check-master", "--quantum", "--n", "3", action],
                expected_master,
            )
        )
    return Workload(ops, runner)


def build(lib, name: str, seed: int, root: Path) -> Workload:
    """The named workload's operations for ``seed``."""
    if name == "cli-cold":
        return build_cli_cold(lib, seed, root)
    builders = {
        "flat-brackets": build_flat_brackets,
        "rational-laplacian": build_rational_laplacian,
        "transitions": build_transitions,
    }
    return Workload(builders[name](lib, seed))
