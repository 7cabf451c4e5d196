"""The command line's contract under hostile input, by a grammar fuzz.

Hypothesis draws subcommands and flags of ``cli.main`` together with broken
or unusual expressions, chart JSON and transition JSON.  Whatever the input:

* the exit code is 0 (success), 1 (a check failed) or 2 (an input error),
  never 3 (an internal error);
* stderr holds at most one line, argparse's usage errors included;
* when a command that prints one expression exits 0, the printed text
  parses back on the result's chart to the value the library computed.

Options come first and the fuzzed positionals last, half the time after ``--``;
without it argparse takes an expression such as ``-x1`` for an option and
the command ends in a usage error.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddsymplectic import cli
from oddsymplectic.expressions import parse_expression

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Commands whose standard output is exactly one expression.
ONE_EXPRESSION = {"bracket", "laplace", "berezinian", "transform", "fourier", "restrict"}

# Generator names: legal ones, and ones that are reserved (``I``), clash with
# the default parameter (``hbar``), are no identifiers, or repeat another block.
EVENS = ["x1", "x2", "y1", "I", "D", "hbar", "1x", ""]
ODDS = ["th1", "th2", "e1", "nu", "I", "x1"]

TOKENS = [
    "x1", "x2", "th1", "th2", "xi1", "y1", "e1", "nu", "hbar", "I", "D",
    "0", "1", "2", "3/2", "(", ")", "+", "-", "*", "/", "^", "^2", "^3", ",", "D(", " ",
]  # fmt: skip

CONSTANTS = ["2", "1/2", "I", "hbar", "(1 + I)"]


def numbered(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def one_in(n):
    """True one time in ``n``; shrinks to False."""
    return st.sampled_from(range(n)).map(lambda k: k == n - 1)


def expressions(names=("x1", "x2", "th1", "th2")):
    """Token soup or a negated product one time in four each, else a sum of
    products over ``names``."""
    atoms = st.sampled_from(list(names) + [f"(1 + {n})" for n in names] + CONSTANTS)
    products = st.lists(atoms, min_size=1, max_size=3).map("*".join)
    well_formed = st.lists(products, min_size=1, max_size=3).map(" + ".join)
    soup = st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)
    return st.one_of(well_formed, well_formed, soup, products.map("-{}".format))


name_lists = st.one_of(
    st.lists(st.sampled_from(EVENS + ODDS), max_size=3),
    st.just([f"x{i}" for i in range(1, 7)]),
    st.sampled_from(["xy", 7, [7]]),
)

charts = st.one_of(
    st.fixed_dictionaries(
        {
            "evens": st.lists(st.sampled_from(EVENS), max_size=3),
            "odds": st.lists(st.sampled_from(ODDS), max_size=3),
        },
        optional={
            "name": st.sampled_from(["C", "P", 7, ["I"]]),
            "externals": name_lists,
            "params": name_lists,
            "bogus": st.just(1),
        },
    ),
    st.dictionaries(
        st.sampled_from(["name", "evens", "odds", "fibers", "externals", "params"]),
        name_lists,
        max_size=3,
    ),
    st.sampled_from([[], "C", 5]),
)


def names_of(chart):
    """The string names of a drawn chart's blocks, for expressions on it."""
    if not isinstance(chart, dict):
        return ["x1"]
    blocks = [chart.get(key, []) for key in ("evens", "odds", "externals")]
    names = [n for block in blocks if isinstance(block, list) for n in block if isinstance(n, str)]
    return names or ["x1"]


@st.composite
def transitions(draw):
    """A transition object and the names of its source.

    Three in four map ``x, th`` at n = 1 or 2 to ``y, e``, with images that
    are mostly of the right parity (some with a singular Jacobian); one in
    three of those targets has blocks of other sizes, and then the images are
    zero or one.  The rest take both charts from the grammar and images
    over their names.
    """
    if not draw(one_in(4)):
        n = draw(st.integers(1, 2))
        n_even, n_odd = n, n
        resized = draw(one_in(3))
        if resized:
            n_even, n_odd = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        source = {"evens": numbered("x", n), "odds": numbered("th", n)}
        target = {"name": "P", "evens": numbered("y", n_even), "odds": numbered("e", n_odd)}
        images = {}
        for i in range(1, n + 1):
            even = [f"y{i}", f"2*y{i}", f"y{i} + y{i}^2", f"y{i} + e1*e{n}", "y1", "0"]
            odd = [f"e{i}", f"1/2*e{i}", f"(1 + y{i})*e{i}", f"e{i} + y1*e1", "e1", "0"]
            soup = draw(one_in(4))
            if resized:
                even, odd, soup = ["0", "1"], ["0"], False
            for name, pool in ((f"x{i}", even), (f"th{i}", odd)):
                text = expressions(names_of(target)) if soup else st.sampled_from(pool)
                images[name] = draw(text)
    else:
        source, target = draw(charts), draw(charts)
        image_text = expressions(names_of(target))
        images = {name: draw(image_text) for name in names_of(source)}
    if draw(one_in(8)):
        images["zz"] = "1"
    images = draw(st.sampled_from([images] * 5 + [[]]))
    document = {"source": source, "target": target, "images": images}
    for key in ("source", "target", "images"):
        if draw(one_in(10)):
            del document[key]
    return document, names_of(source)


def as_json(document, truncate):
    """``document`` serialised, cut short by one character when ``truncate``."""
    text = json.dumps(document)
    return text[:-1] if truncate else text


def joined(draw, command, options, positionals):
    """``argv``: options, then ``--`` one time in two, then positionals."""
    separator = ["--"] if draw(st.booleans()) else []
    return [command, *options, *separator, *positionals]


@st.composite
def invocations(draw):
    """``argv`` for one subcommand: options, then positionals."""
    command = draw(st.sampled_from(sorted(ONE_EXPRESSION | {"check-transition", "check-master"})))
    options, positionals = [], []
    if command in {"berezinian", "transform", "check-transition"}:
        document, source_names = draw(transitions())
        positionals.append(as_json(document, draw(one_in(8))))
        if command == "transform":
            positionals.append(draw(expressions(source_names)))
            weight = draw(st.sampled_from(["0", "1/2", "1", "-1/2", "3/2", "2"]))
            options.append(f"--weight={weight}")
        return joined(draw, command, options, positionals)

    chart_kind = draw(st.sampled_from(["default", "n", "chart"]))
    n = 2
    if chart_kind == "n":
        n = draw(st.integers(1, 3))
        options.append(f"--n={n}")
    names = numbered("x", n) + numbered("th", n)
    if chart_kind == "chart":
        chart = draw(charts)
        options.append(f"--chart={as_json(chart, draw(one_in(8)))}")
        names = names_of(chart)
    if command == "fourier" and draw(st.booleans()):
        options.append("--inverse")
    elif command == "fourier" and chart_kind != "chart":
        names = numbered("x", n) + numbered("xi", n)
    elif command == "laplace":
        options += draw(
            st.one_of(
                st.just([]),
                st.just(["--canonical"]),
                expressions(names).map(lambda rho: [f"--rho={rho}"]),
            )
        )
    elif command == "restrict":
        alphas = draw(st.lists(st.just("0") | expressions(names), min_size=1, max_size=3))
        options += [f"--alpha={alpha}" for alpha in alphas]
    elif command == "check-master":
        options.append(draw(st.sampled_from(["--quantum", "--classical", "--semidensity"])))
    positionals.append(draw(expressions(names)))
    if command == "bracket":
        positionals.append(draw(expressions(names)))
    return joined(draw, command, options, positionals)


@SETTINGS
@given(invocations())
def test_cli_contract_holds_on_hostile_input(argv):
    formatted = []
    real_format = cli.format_superfunction

    def recording_format(value):
        formatted.append(value)
        return real_format(value)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        patch.setattr(cli, "format_superfunction", recording_format)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code

    assert code in (0, 1, 2), (argv, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    if code == 0 and argv[0] in ONE_EXPRESSION:
        (value,) = formatted
        text = out.getvalue().strip()
        assert parse_expression(text, value.chart) == value, (argv, text)
