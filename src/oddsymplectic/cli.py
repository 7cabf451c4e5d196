"""Command-line front end for the odd symplectic calculus engine.

Every subcommand maps to one library operation or one named check suite;
inputs are textual expressions and JSON-serialized charts and transitions.
Every chart, whether from ``--n``, ``--chart`` or a transition, holds at
most :data:`~oddsymplectic.expressions.MAX_DIMENSION` generators in each block.
Exit codes: 0 on success, 1 when an exact check fails, 2 on usage, syntax,
or other input errors, 3 on an internal error (a bug, reported in one
``internal error:`` line).

Every run pays the interpreter's cold start, so each subcommand imports only
the modules it uses: ``bracket`` loads no operator module above
:mod:`~oddsymplectic.brackets`, :mod:`json` is imported only to read a JSON
argument or print ``--format json``, and no module that a command other
than ``suite`` loads uses :mod:`dataclasses`.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence

from .errors import NoExactSquareRoot, OddSymplecticError
from .expressions import (
    DEFAULT_COUNT,
    MAX_COUNT,
    MAX_DIMENSION,
    SUITE_NAMES,
    _transition_charts,
    _transition_images,
    chart_from_dict,
    format_superfunction,
    parse_expression,
    superfunction_to_dict,
)
from .superalgebra import Chart, SuperFunction

if TYPE_CHECKING:
    from .charts import Transition

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# -- input plumbing ------------------------------------------------------------------


def _load_json(argument: str) -> Any:
    """Decode inline JSON, or the contents of the file the argument names."""
    import json

    text = argument.strip()
    if not text.startswith(("{", "[")):
        with open(argument, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _bounded(chart: Chart) -> Chart:
    """The chart itself, refused when a block has more than MAX_DIMENSION names."""
    blocks = (
        chart.even_coords,
        chart.odd_coords,
        chart.fiber_odds,
        chart.external_odds,
        chart.params,
    )
    if max(len(block) for block in blocks) > MAX_DIMENSION:
        raise ValueError(
            f"chart {chart.name!r} has a block of more than {MAX_DIMENSION} generators"
        )
    return chart


def _resolve_chart(args: argparse.Namespace, *, fiber: bool = False) -> Chart:
    """The working chart: ``--chart`` JSON if given, else a standard one."""
    if args.chart:
        return _bounded(chart_from_dict(_load_json(args.chart)))
    if fiber:
        return Chart.forms(args.n)
    return Chart.darboux(args.n)


def _resolve_transition(argument: str) -> Transition:
    """The transition JSON describes; its charts meet the cap before it is built."""
    from .charts import Transition

    data = _load_json(argument)
    source, target = _transition_charts(data)
    _bounded(source)
    _bounded(target)
    return Transition(source, target, _transition_images(data, target))


def _emit(args: argparse.Namespace, lines: Sequence[str], data: Any) -> None:
    if args.format == "json":
        import json

        print(json.dumps(data, indent=2))
    else:
        for line in lines:
            print(line)


def _emit_superfunction(args: argparse.Namespace, value: SuperFunction) -> None:
    _emit(args, [format_superfunction(value)], superfunction_to_dict(value))


# -- subcommands ---------------------------------------------------------------------


def _cmd_bracket(args: argparse.Namespace) -> int:
    from .brackets import odd_poisson_bracket

    chart = _resolve_chart(args)
    f = parse_expression(args.f, chart)
    g = parse_expression(args.g, chart)
    _emit_superfunction(args, odd_poisson_bracket(f, g))
    return EXIT_OK


def _cmd_laplace(args: argparse.Namespace) -> int:
    from .laplacians import VolumeForm, delta0, delta_rho

    chart = _resolve_chart(args)
    f = parse_expression(args.expr, chart)
    if args.rho is not None:
        volume = VolumeForm(chart, parse_expression(args.rho, chart))
        result = delta_rho(volume, f)
    elif args.canonical:
        from .charts import Density, canonical_delta

        result = canonical_delta(Density.semidensity(f)).coefficient
    else:
        result = delta0(f)
    _emit_superfunction(args, result)
    return EXIT_OK


def _cmd_berezinian(args: argparse.Namespace) -> int:
    from .charts import berezinian

    transition = _resolve_transition(args.transition)
    _emit_superfunction(args, berezinian(transition))
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> int:
    from .charts import Density, transform_density

    transition = _resolve_transition(args.transition)
    value = parse_expression(args.expr, transition.source)
    if args.weight == 0:
        result = transition.apply(value)
    else:
        moved = transform_density(
            Density(transition.source, value, args.weight), transition
        )
        result = moved.coefficient
    _emit_superfunction(args, result)
    return EXIT_OK


def _cmd_check_transition(args: argparse.Namespace) -> int:
    from .charts import bv_identity, symplectomorphism_defects

    transition = _resolve_transition(args.transition)
    defects = symplectomorphism_defects(transition)
    canonical = not defects
    try:
        closedness = format_superfunction(bv_identity(transition))
        root_closed = closedness == "0"
    except NoExactSquareRoot as exc:
        closedness = f"no exact root ({exc})"
        root_closed = False
    lines = [
        f"canonical: {'yes' if canonical else 'no'}",
        f"bracket defects: {len(defects)}",
        f"delta0(sqrt(Ber)): {closedness}",
    ]
    data = {
        "canonical": canonical,
        "defects": [format_superfunction(d) for d in defects],
        "bv_identity": closedness,
        "passed": canonical and root_closed,
    }
    _emit(args, lines, data)
    return EXIT_OK if canonical and root_closed else EXIT_CHECK_FAILED


def _cmd_fourier(args: argparse.Namespace) -> int:
    from .charts import Density
    from .forms import form_to_semidensity, semidensity_to_form

    if args.inverse:
        chart = _resolve_chart(args)
        density = Density.semidensity(parse_expression(args.expr, chart))
        result = semidensity_to_form(density)
    else:
        chart = _resolve_chart(args, fiber=True)
        result = form_to_semidensity(parse_expression(args.expr, chart)).coefficient
    _emit_superfunction(args, result)
    return EXIT_OK


def _cmd_restrict(args: argparse.Namespace) -> int:
    from .charts import Density
    from .forms import restrict_to_lagrangian

    chart = _resolve_chart(args)
    density = Density.semidensity(parse_expression(args.expr, chart))
    alpha = [parse_expression(component, chart) for component in args.alpha]
    restricted = restrict_to_lagrangian(density, alpha)
    _emit_superfunction(args, restricted.coefficient)
    return EXIT_OK


def _cmd_check_master(args: argparse.Namespace) -> int:
    from .charts import Density
    from .master import (
        classical_master_residual,
        quantum_master_residual,
        semidensity_master_check,
    )

    chart = _resolve_chart(args)
    value = parse_expression(args.expr, chart)
    if args.semidensity:
        report = semidensity_master_check(Density.semidensity(value))
        residual = report.residual.coefficient
        holds = report.closed
        mode = "semidensity"
    elif args.classical:
        residual = classical_master_residual(value)
        holds = residual.is_zero()
        mode = "classical"
    else:
        residual = quantum_master_residual(value)
        holds = residual.is_zero()
        mode = "quantum"
    lines = [
        f"residual: {format_superfunction(residual)}",
        f"holds: {'yes' if holds else 'no'}",
    ]
    data = {
        "mode": mode,
        "residual": format_superfunction(residual),
        "holds": holds,
    }
    _emit(args, lines, data)
    return EXIT_OK if holds else EXIT_CHECK_FAILED


def _cmd_suite(args: argparse.Namespace) -> int:
    from .suites import run_suite

    report = run_suite(args.name, n=args.n, seed=args.seed, count=args.count)
    _emit(args, report.lines(), report.to_dict())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- parser --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error in one stderr line.

    argparse takes a token that begins with ``-``, such as the expression
    ``-x1*th1``, for an option; when such a token is no option of this
    parser, the line says where an expression like it goes.
    """

    def parse_known_args(
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        self.tokens = list(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        tokens = self.tokens[: self.tokens.index("--")] if "--" in self.tokens else self.tokens
        options = self._option_string_actions
        if any(
            token.startswith("-")
            and " " not in token  # argparse reads a token with a space as a positional
            and not any(option.startswith(token.split("=")[0]) for option in options)
            for token in tokens
        ):
            message += (
                "; an expression that begins with '-' goes after '--',"
                " or after '=' as an option value"
            )
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= value <= MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_DIMENSION}")
    return value


def _weight(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _add_common(
    parser: argparse.ArgumentParser, *, n: bool = True, chart: bool = True
) -> None:
    if n:
        parser.add_argument(
            "--n",
            type=_dimension,
            default=2,
            help=f"base dimension, at most {MAX_DIMENSION} (default 2)",
        )
    if chart:
        parser.add_argument(
            "--chart",
            help="chart as inline JSON or a path to a JSON file "
            "(overrides the default Darboux chart)",
        )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oddsymplectic",
        description="Exact calculus on odd symplectic charts: brackets, odd "
        "Laplacians, Berezinians, the form/semidensity bridge, and master-"
        "equation checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bracket", help="odd Poisson bracket of two expressions")
    p.add_argument("f", help="first expression")
    p.add_argument("g", help="second expression")
    _add_common(p)
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("laplace", help="odd Laplacian of an expression")
    p.add_argument("expr", help="the expression")
    operator = p.add_mutually_exclusive_group()
    operator.add_argument("--rho", help="volume coefficient for the weighted Laplacian")
    operator.add_argument(
        "--canonical",
        action="store_true",
        help="treat the expression as a semidensity coefficient",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_laplace)

    p = sub.add_parser("berezinian", help="Berezinian of a coordinate transition")
    p.add_argument("transition", help="transition as inline JSON or a file path")
    _add_common(p, n=False, chart=False)
    p.set_defaults(handler=_cmd_berezinian)

    p = sub.add_parser("transform", help="push an expression through a transition")
    p.add_argument("transition", help="transition as inline JSON or a file path")
    p.add_argument("expr", help="expression on the source chart")
    p.add_argument(
        "--weight",
        type=_weight,
        default="0",
        help="density weight: 0 substitutes, 1/2 transports a semidensity, "
        "1 a volume (default 0)",
    )
    _add_common(p, n=False, chart=False)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser(
        "check-transition",
        help="verify a transition is canonical and its Berezinian root is closed",
    )
    p.add_argument("transition", help="transition as inline JSON or a file path")
    _add_common(p, n=False, chart=False)
    p.set_defaults(handler=_cmd_check_transition)

    p = sub.add_parser(
        "fourier",
        help="form-to-semidensity transform (forward) or its inverse",
    )
    p.add_argument("expr", help="form (forward) or semidensity coefficient (--inverse)")
    p.add_argument(
        "--inverse",
        action="store_true",
        help="map a semidensity coefficient back to its differential form",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_fourier)

    p = sub.add_parser(
        "restrict",
        help="restrict a semidensity to the Lagrangian graph of a closed one-form",
    )
    p.add_argument("expr", help="semidensity coefficient")
    p.add_argument(
        "--alpha",
        action="append",
        required=True,
        help="one component of the graph one-form; repeat once per base "
        "coordinate, in order",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_restrict)

    p = sub.add_parser(
        "check-master",
        help="check a master equation for an action or a semidensity",
    )
    p.add_argument("expr", help="action (quantum/classical) or semidensity coefficient")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--quantum", action="store_true", help="quantum master equation")
    mode.add_argument(
        "--classical", action="store_true", help="classical master equation"
    )
    mode.add_argument(
        "--semidensity",
        action="store_true",
        help="closedness of a semidensity under the canonical Laplacian",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_check_master)

    p = sub.add_parser("suite", help="run a named identity suite")
    p.add_argument("name", choices=SUITE_NAMES, help="which suite to run")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument(
        "--count",
        type=int,
        default=DEFAULT_COUNT,
        help=f"checks per suite item, 1 to {MAX_COUNT} (default {DEFAULT_COUNT})",
    )
    _add_common(p, chart=False)
    p.set_defaults(handler=_cmd_suite)

    for subparser in sub.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except OddSymplecticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
