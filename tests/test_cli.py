"""Command-line interface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddsymplectic
from oddsymplectic import brackets, expressions, master, suites
from oddsymplectic.cli import main
from oddsymplectic.expressions import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    MAX_PRODUCT_TERMS,
)
from oddsymplectic.sampling import MAX_DIMENSION
from oddsymplectic.suites import MAX_COUNT

SCALING = json.dumps(
    {
        "source": {"name": "C", "evens": ["x1"], "odds": ["th1"]},
        "target": {"name": "P", "evens": ["x1"], "odds": ["th1"]},
        "images": {"x1": "2*x1", "th1": "1/2*th1"},
    }
)

BROKEN = json.dumps(
    {
        "source": {"name": "C", "evens": ["x1"], "odds": ["th1"]},
        "target": {"name": "P", "evens": ["x1"], "odds": ["th1"]},
        "images": {"x1": "2*x1", "th1": "th1"},
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_bracket_text_output(capsys):
    code, out, _ = run(capsys, "bracket", "x1", "th1")
    assert code == 0
    assert out == "1"
    code, out, _ = run(capsys, "bracket", "th1", "x1")
    assert code == 0
    assert out == "-1"


def test_bracket_json_output(capsys):
    code, out, _ = run(capsys, "bracket", "x1*th1", "x2*th2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == []  # disjoint conjugate pairs commute


def test_laplace_variants(capsys):
    code, out, _ = run(capsys, "laplace", "x1*th1")
    assert code == 0 and out == "1"
    code, out, _ = run(capsys, "laplace", "x1*th1", "--canonical")
    assert code == 0 and out == "1"
    code, out, _ = run(capsys, "laplace", "x1*x1*th1", "--rho", "1", "--n", "1")
    assert code == 0 and out == "2*x1"


def test_laplace_rho_and_canonical_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as info:
        main(["laplace", "x1*th1", "--canonical", "--rho", "1+x1^2"])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_berezinian_of_scaling(capsys):
    code, out, _ = run(capsys, "berezinian", SCALING)
    assert code == 0
    assert out == "4"


def test_transform_weights(capsys):
    code, out, _ = run(capsys, "transform", SCALING, "x1*th1")
    assert code == 0 and out == "x1*th1"
    code, out, _ = run(capsys, "transform", SCALING, "th1", "--weight", "1/2")
    assert code == 0 and out == "th1"
    code, out, _ = run(capsys, "transform", SCALING, "1", "--weight", "1")
    assert code == 0 and out == "4"


def test_transition_with_a_singular_even_block_exits_two(capsys):
    line = {"evens": ["x1"], "odds": ["th1"]}
    target = {"name": "P", "evens": ["y1"], "odds": ["e1"]}
    singular = json.dumps({"source": line, "target": target, "images": {"x1": "0", "th1": "e1"}})
    message = "error: even-even block of the Jacobian is not invertible"
    for argv in (
        ("berezinian", singular),
        ("transform", singular, "x1", "--weight", "1"),
        ("transform", singular, "x1", "--weight", "1/2"),
        ("check-transition", singular),
    ):
        assert run(capsys, *argv) == (2, "", message), argv
    assert run(capsys, "transform", singular, "x1*th1") == (0, "0", "")


def test_transition_from_file(capsys, tmp_path):
    path = tmp_path / "scaling.json"
    path.write_text(SCALING, encoding="utf-8")
    code, out, _ = run(capsys, "berezinian", str(path))
    assert code == 0 and out == "4"


def test_a_file_argument_that_cannot_be_read_is_an_input_error(capsys, tmp_path):
    for argument in (str(tmp_path / "missing.json"), str(tmp_path)):
        code, out, err = run(capsys, "berezinian", argument)
        assert code == 2 and out == "", argument
        assert err.startswith("error: [Errno ") and argument in err, err


def test_check_transition_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check-transition", SCALING)
    assert code == 0
    assert "canonical: yes" in out
    code, out, _ = run(capsys, "check-transition", BROKEN, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["canonical"] is False and data["passed"] is False


def test_fourier_round_trip(capsys):
    code, image, _ = run(capsys, "fourier", "1 + x1*xi1 + xi1*xi2", "--n", "2")
    assert code == 0
    code, back, _ = run(capsys, "fourier", image, "--n", "2", "--inverse")
    assert code == 0
    assert back == "1 + x1*xi1 + xi1*xi2"


def test_restrict_to_graph(capsys):
    chart = json.dumps(
        {"name": "C", "evens": ["x1"], "odds": ["th1"], "externals": ["nu"]}
    )
    code, out, _ = run(
        capsys,
        "restrict",
        "x1*x1 + (1 + x1)*th1",
        "--alpha",
        "nu*(1 + x1)",
        "--chart",
        chart,
    )
    assert code == 0
    assert out == "x1^2 + (x1^2 + 2*x1 + 1)*nu"


def test_check_master_modes(capsys):
    code, out, _ = run(capsys, "check-master", "x1*th1*th2", "--classical")
    assert code == 0 and "holds: yes" in out
    code, out, _ = run(capsys, "check-master", "1 + x1*th1*th2", "--semidensity")
    assert code == 1 and "holds: no" in out
    # an action solving both orders of the quantum equation
    code, out, _ = run(capsys, "check-master", "th1*th2", "--quantum")
    assert code == 0 and "holds: yes" in out
    code, out, _ = run(capsys, "check-master", "x1*x1*th1*th2", "--quantum")
    assert code == 1 and "holds: no" in out


def test_suite_runs_and_reports(capsys):
    code, out, _ = run(capsys, "suite", "axioms", "--n", "2", "--seed", "1", "--count", "3")
    assert code == 0
    assert "suite axioms (n=2, seed=1, count=3)" in out
    assert "all identities hold" in out
    code, again, _ = run(capsys, "suite", "axioms", "--n", "2", "--seed", "1", "--count", "3")
    assert again == out  # deterministic given the seed


def test_suite_json_shape(capsys):
    code, out, _ = run(capsys, "suite", "bv", "--n", "1", "--seed", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "bv" and data["passed"] is True
    tags = {item["tag"] for item in data["items"]}
    assert "berezinian-diagonal-scaling-example" in tags


def test_suite_failure_exit_code(capsys, monkeypatch):
    original = brackets.odd_poisson_bracket

    def deformed(f, g):
        return original(f, g) + f * g

    monkeypatch.setattr(brackets, "odd_poisson_bracket", deformed)
    code, out, _ = run(capsys, "suite", "axioms", "--n", "1", "--count", "2")
    assert code == 1
    assert "FAILURES detected" in out


def test_failed_exponential_identity_exits_one_with_a_report(capsys, monkeypatch):
    original = master.delta0
    monkeypatch.setattr(master, "delta0", lambda f: original(f) + f)
    code, out, err = run(capsys, "suite", "master", "--n", "1", "--count", "2")
    assert code == 1
    assert "[FAIL] exponential-laplacian-identity" in out
    assert "witness: g = " in out
    assert "FAILURES detected" in out
    assert err == ""


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "bracket", "x1 +", "x1")
    assert code == 2 and "column 5" in err
    code, _, err = run(capsys, "bracket", "y9", "x1")
    assert code == 2 and "y9" in err
    code, _, err = run(capsys, "berezinian", "{not json")
    assert code == 2
    code, _, err = run(capsys, "restrict", "th1", "--alpha", "x1", "--n", "1")
    assert code == 2 and "odd" in err


def test_malformed_chart_and_transition_json_exit_two(capsys):
    line = {"evens": ["x1"], "odds": ["th1"]}
    for argv in (
        ("bracket", "x1", "th1", "--chart", "[]"),
        ("bracket", "x1", "th1", "--chart", '{"evens": [1]}'),
        ("bracket", "x", "y", "--chart", '{"evens": "xy", "odds": "ab"}'),
        ("berezinian", '{"source": [], "target": []}'),
        ("berezinian", json.dumps({"source": line, "target": line, "images": []})),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "internal" not in err, argv


def test_malformed_transition_json_names_the_field(capsys):
    line = {"evens": ["x1"], "odds": ["th1"]}
    for document, message in (
        ([], "a transition must be a JSON object, got list"),
        ({}, "transition field 'source' is missing"),
        ({"source": line}, "transition field 'target' is missing"),
        ({"source": line, "target": 5}, "transition field 'target' must be a JSON object"),
    ):
        for command in ("berezinian", "check-transition"):
            code, out, err = run(capsys, command, json.dumps(document))
            assert (code, out) == (2, ""), document
            assert err.startswith(f"error: {message}"), err


@pytest.mark.parametrize(
    "target",
    [{}, {"evens": ["y1"]}, {"evens": ["y1", "y2"], "odds": ["eta1", "eta2"]}],
    ids=["point", "no-odd-block", "larger"],
)
def test_transitions_between_blocks_of_different_sizes_exit_two(capsys, target):
    source = {"evens": ["x1"], "odds": ["th1"]}
    zero_images = json.dumps({"source": source, "target": target, "images": {"x1": "0", "th1": "0"}})
    one_images = json.dumps({"source": source, "target": target, "images": {"x1": "1", "th1": "0"}})
    for argv in (
        ("berezinian", zero_images),
        ("check-transition", zero_images),
        ("transform", one_images, "x1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: source chart") and "even" in err, err


def test_reserved_generator_names_exit_two(capsys):
    code, out, err = run(capsys, "bracket", "x1", "I", "--chart", '{"evens":["x1"],"odds":["I"]}')
    assert (code, out) == (2, "")
    assert err == "error: generator name 'I' is reserved for the imaginary unit"


@pytest.mark.parametrize(
    "chart, message",
    [
        ({"evens": ["x1"], "odds": ["th1"], "bogus": 1}, "error: chart has unknown fields ['bogus']"),
        ({"name": ["I"], "evens": ["x1"], "odds": ["th1"]}, "error: chart field 'name' must be a string"),
    ],
    ids=["unknown-key", "list-name"],
)
def test_chart_json_with_unknown_keys_or_a_list_name_exits_two(capsys, chart, message):
    code, out, err = run(capsys, "bracket", "x1", "th1", "--chart", json.dumps(chart))
    assert (code, out, err) == (2, "", message)


def run_python(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(oddsymplectic.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_subprocess(*argv):
    return run_python("-m", "oddsymplectic", *argv)


def test_weight_that_is_no_rational_is_a_usage_error():
    for weight in ("1/0", "half"):
        proc = run_subprocess("transform", "--weight", weight, SCALING, "x1")
        assert proc.returncode == 2
        assert "error: argument --weight" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_internal_error_exits_three_with_one_line():
    script = "\n".join(
        (
            "import sys",
            "from oddsymplectic import brackets, cli",
            "def broken(f, g):",
            "    raise RuntimeError('planted failure')",
            "brackets.odd_poisson_bracket = broken",
            "sys.exit(cli.main(['bracket', 'x1', 'th1']))",
        )
    )
    proc = run_python("-c", script)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "internal error: RuntimeError('planted failure')\n"


@pytest.mark.parametrize("planted", [KeyError("missing"), TypeError("planted failure")])
def test_library_key_and_type_errors_are_internal_errors(capsys, monkeypatch, planted):
    # Malformed input reaches the user as OSError or ValueError; a KeyError or
    # TypeError from the library is a bug and must not pass as an input error.
    def broken(f, g):
        raise planted

    monkeypatch.setattr(brackets, "odd_poisson_bracket", broken)
    code, out, err = run(capsys, "bracket", "x1", "th1")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {planted!r}"


def test_charts_past_the_dimension_cap_are_refused():
    def chart(evens, externals=()):
        return {"name": "C", "evens": evens, "odds": ["th1"], "externals": list(externals)}

    big = [f"x{i}" for i in range(1, MAX_DIMENSION + 2)]
    transition = {"source": chart(big), "target": chart(big), "images": {}}
    many_externals = {
        "source": chart(["x1"], externals=[f"e{i}" for i in range(MAX_DIMENSION + 1)]),
        "target": chart(["x1"]),
        "images": {},
    }
    for argv in (
        ("bracket", "x1", "th1", "--n", "20000"),
        ("bracket", "x1", "th1", "--n", str(MAX_DIMENSION + 1)),
        ("bracket", "x1", "th1", "--chart", json.dumps(chart(big))),
        ("berezinian", json.dumps(transition)),
        ("berezinian", json.dumps(many_externals)),
    ):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2, argv
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert str(MAX_DIMENSION) in proc.stderr
    at_cap = run_subprocess("bracket", "x1", "th1", "--n", str(MAX_DIMENSION))
    assert at_cap.returncode == 0 and at_cap.stdout == "1\n"


def test_a_dimension_that_is_no_integer_is_a_usage_error():
    proc = run_subprocess("bracket", "x1", "th1", "--n", "abc")
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: argument --n: not an integer: 'abc'\n")
    assert "_dimension" not in proc.stderr


def test_deep_nesting_is_a_syntax_error_not_a_crash():
    deep = "(" * 3000 + "x1" + ")" * 3000
    proc = run_subprocess("bracket", deep, "th1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert f"more than {MAX_NESTING} deep" in proc.stderr


def test_deeply_nested_json_is_an_input_error_not_a_crash():
    deep_list = "[" * 3000 + "]" * 3000
    deep_object = '{"a": ' * 3000 + "1" + "}" * 3000
    for argv in (("bracket", "x1", "th1", "--chart", deep_list), ("berezinian", deep_object)):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2, argv
        assert proc.stderr == "error: JSON input is nested too deeply\n"


def test_exponent_past_the_bound_is_a_syntax_error_not_a_hang():
    proc = run_subprocess("bracket", "(1+x1)^20000", "th1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert f"exponent larger than {MAX_EXPONENT}" in proc.stderr
    at_bound = run_subprocess("bracket", f"(1+x1)^{MAX_EXPONENT}", "th1")
    assert at_bound.returncode == 0
    assert at_bound.stdout.startswith(f"{MAX_EXPONENT}*x1^{MAX_EXPONENT - 1} + ")
    for past in (f"x1^{MAX_EXPONENT + 1}", f"x1^-{MAX_EXPONENT + 1}"):
        proc = run_subprocess("bracket", past, "th1")
        assert proc.returncode == 2 and "exponent larger" in proc.stderr
    below = run_subprocess("bracket", f"x1^-{MAX_EXPONENT}", "th1")
    assert below.returncode == 0


def test_powers_past_the_size_bounds_are_syntax_errors_not_hangs():
    # Each exponent is within MAX_EXPONENT; the expansion is what is too big.
    for text, message in (
        ("((1+x1)^64)^64", f"more than {MAX_POWER_DEGREE}"),
        ("(1+x1+x2+hbar)^64", f"more than {MAX_POWER_TERMS}"),
    ):
        proc = run_subprocess("bracket", text, "th1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


def test_products_past_the_bound_are_syntax_errors_not_hangs():
    # Each factor is a power within the bounds, 2925 terms; their product
    # used to expand for tens of seconds.
    proc = run_subprocess("bracket", "(1+x1+x2+hbar)^24*(1+x1+x2+hbar)^24", "th1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert f"more than {MAX_PRODUCT_TERMS}" in proc.stderr


def test_products_at_the_bound_parse(capsys, monkeypatch):
    # Terms count numerators and denominators: (1+x1) over 1 counts three.
    monkeypatch.setattr(expressions, "MAX_PRODUCT_TERMS", 9)
    code, out, _ = run(capsys, "bracket", "(1+x1)*(1+x2)", "th1")
    assert code == 0 and out == "x2 + 1"
    for text in ("(1+x1+x2)*(1+x1)", "(1+x1+x2)/(1+x1)"):
        code, _, err = run(capsys, "bracket", text, "th1")
        assert code == 2 and "product of 12 term pairs, more than 9" in err
        assert "column 10" in err


def test_powers_at_the_size_bounds_parse(capsys):
    code, out, _ = run(capsys, "bracket", "((1+x1)^64)^4", "th1")
    assert code == 0 and out.startswith(f"{MAX_POWER_DEGREE}*x1^{MAX_EXPONENT}*")
    code, _, err = run(capsys, "bracket", "((1+x1)^64)^5", "th1")
    assert code == 2 and "column 13" in err
    # Degree 16 in four variables: C(20, 4) = 4845 monomials at most.
    code, _, _ = run(capsys, "bracket", "(1+x1+x2+x3+hbar)^16", "th1", "--n", "3")
    assert code == 0
    code, _, err = run(capsys, "bracket", "(1+x1+x2+x3+hbar)^17", "th1", "--n", "3")
    assert code == 2 and "5985 terms" in err


def test_nesting_up_to_the_bound_and_repeated_signs_parse(capsys):
    at_bound = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    code, out, _ = run(capsys, "bracket", at_bound, "th1")
    assert code == 0 and out == "1"
    code, _, err = run(capsys, "bracket", f"D({at_bound}, x1)", "th1")
    assert code == 2 and "deep" in err
    code, out, _ = run(capsys, "bracket", "(" + "-" * 3001 + "x1)", "th1")
    assert code == 0 and out == "-1"


def test_unknown_subcommand_and_suite_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["suite", "nosuch"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_suite_counts_past_the_bound_are_refused_not_run():
    # --count 100000 would run for hours; it must be refused before any check.
    for count in ("100000", str(MAX_COUNT + 1), "0"):
        proc = run_subprocess("suite", "axioms", "--count", count)
        assert proc.returncode == 2, count
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert f"between 1 and {MAX_COUNT}" in proc.stderr


def test_suite_has_no_chart_option():
    # Suites sample on the default chart of dimension --n; --chart is refused
    # rather than silently ignored.
    chart = json.dumps({"evens": ["y1"], "odds": ["eta1"]})
    proc = run_subprocess("suite", "axioms", "--chart", chart)
    assert proc.returncode == 2
    assert "unrecognized arguments: --chart" in proc.stderr


def test_suite_count_at_the_bound_runs(capsys, monkeypatch):
    monkeypatch.setattr(suites, "MAX_COUNT", 3)
    code, out, _ = run(capsys, "suite", "axioms", "--n", "1", "--count", "3")
    assert code == 0 and "count=3" in out
    code, out, err = run(capsys, "suite", "axioms", "--n", "1", "--count", "4")
    assert code == 2 and out == ""
    assert err == "error: count must be between 1 and 3, got 4"


def test_usage_errors_are_one_line_naming_the_subcommand(capsys):
    for argv, prog, message in (
        (["frobnicate"], "oddsymplectic", "invalid choice: 'frobnicate'"),
        (["bracket", "x1"], "oddsymplectic bracket", "required: g"),
        (["laplace", "x1", "--canonical", "--rho", "1"], "oddsymplectic laplace", "not allowed"),
        (["suite", "axioms", "--chart", "{}"], "oddsymplectic suite", "unrecognized arguments: --chart"),
        (["bracket", "x1", "th1", "extra"], "oddsymplectic bracket", "unrecognized arguments: extra"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{prog}: error: ") and message in captured.err, argv
        assert len(captured.err.splitlines()) == 1, argv
        assert ("'--'" in captured.err) == ("--chart" in argv), argv


def test_an_expression_that_begins_with_a_minus_sign_goes_after_the_separator(capsys):
    for argv in (["laplace", "-x1*th1"], ["bracket", "-x1", "th1"], ["bracket", "x1", "-th1"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"oddsymplectic {argv[0]}: error: ") and "after '--'" in err, argv
        assert len(err.splitlines()) == 1
        code, out, _ = run(capsys, argv[0], "--", *argv[1:])
        assert code == 0 and out == "-1", argv
    # An option's value goes after '=' instead.
    with pytest.raises(SystemExit):
        main(["laplace", "x1*x1*th1", "--n", "1", "--rho", "-(1+x1)"])
    assert "after '='" in capsys.readouterr().err
    code, out, _ = run(capsys, "laplace", "x1*x1*th1", "--n", "1", "--rho=-(1+x1)")
    assert code == 0 and out == "(5/2*x1^2 + 2*x1)/(x1 + 1)"


# Runs ``cli.main`` on the argv given as JSON; the last line of stdout lists
# the package's submodules that were loaded, and ``dataclasses`` if it was.
# The probe imports json itself; the CI workflow checks json on ``python -m``.
IMPORT_PROBE = """\
import json, sys
from oddsymplectic import cli
cli.main(json.loads(sys.argv[1]))
loaded = [m.split(".", 1)[1] for m in sys.modules if m.startswith("oddsymplectic.")]
if "dataclasses" in sys.modules:
    loaded.append("dataclasses")
print(json.dumps(sorted(loaded)))
"""

ONE_OF_EACH = {
    "bracket": ["bracket", "x1", "th1"],
    "laplace": ["laplace", "x1*th1", "--rho", "1"],
    "berezinian": ["berezinian", SCALING],
    "transform": ["transform", SCALING, "x1", "--weight", "1/2"],
    "check-transition": ["check-transition", SCALING],
    "fourier": ["fourier", "1 + x1*xi1"],
    "restrict": ["restrict", "1", "--alpha", "x1", "--alpha", "x2"],
    "check-master": ["check-master", "th1*th2", "--quantum"],
    "suite": ["suite", "axioms", "--n", "1", "--count", "1"],
}


def test_the_package_import_loads_no_submodule():
    script = "import sys, oddsymplectic; print([m for m in sys.modules if 'oddsymplectic.' in m])"
    assert run_python("-c", script).stdout == "[]\n"


@pytest.fixture(scope="module")
def cold_start_modules():
    """For each subcommand, the submodules a fresh interpreter loads to run it."""
    loaded = {}
    for name, argv in ONE_OF_EACH.items():
        proc = run_python("-c", IMPORT_PROBE, json.dumps(argv))
        assert proc.returncode in (0, 1), proc.stderr
        loaded[name] = set(json.loads(proc.stdout.splitlines()[-1]))
    return loaded


def test_bracket_loads_no_operator_above_the_bracket(cold_start_modules):
    loaded = cold_start_modules["bracket"]
    assert "brackets" in loaded
    assert not loaded & {"suites", "sampling", "forms", "master", "charts", "laplacians"}


def test_berezinian_loads_charts_but_not_the_suites(cold_start_modules):
    assert "charts" in cold_start_modules["berezinian"]
    assert "suites" not in cold_start_modules["berezinian"]


def test_no_command_here_loads_browns_gcd(cold_start_modules):
    # No fraction in these inputs passes the gcd's shortcuts, so none reaches
    # exact division, the proofs modulo a prime or Brown's gcd, all in brown.
    assert not any("brown" in loaded for loaded in cold_start_modules.values())


def test_only_the_suite_command_loads_the_suites(cold_start_modules):
    for module in ("suites", "sampling", "derived", "dataclasses"):
        users = {name for name, loaded in cold_start_modules.items() if module in loaded}
        assert users == {"suite"}, module
