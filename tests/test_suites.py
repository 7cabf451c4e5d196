"""Suite reports: determinism, coverage, and failure detection under mutation."""

import hashlib
import json

import pytest

from oddsymplectic import brackets, charts, master, sampling, suites

SAMPLING_DIGEST = "f9b91ce04f39728ea9d3d1464154ddd4a50e2645a2fb97dd5cd0ff9ebad87e47"
# The same digest at n = 4 and 5, the dimensions up to sampling.MAX_DIMENSION.
CAP_SAMPLING_DIGEST = "5e1812947f0f1c569f39ed16feb799cef71d1940a1bb5c6c8195f7c143a8aa40"
DEFORMED_BRACKET_DIGEST = "d5be32e5fdbe55cdfc03feea9d65517b3f0a631404fd25a6db548ca9c925db12"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        suites.run_suite("nonsense")
    with pytest.raises(ValueError):
        suites.run_suite("axioms", count=0)
    with pytest.raises(ValueError, match=f"between 1 and {suites.MAX_COUNT}"):
        suites.run_suite("axioms", count=suites.MAX_COUNT + 1)


def test_every_named_suite_passes():
    for name in ("axioms", "laplacian", "bv", "fourier", "master"):
        report = suites.run_suite(name, n=2, seed=5, count=4)
        assert report.passed, report.lines()
        assert report.items
        for item in report.items:
            assert item.checked >= 1


@pytest.mark.parametrize("n", [4, 5])
def test_all_suites_hold_up_to_the_dimension_cap(n):
    assert n <= sampling.MAX_DIMENSION
    report = suites.run_suite("all", n=n, seed=3, count=3)
    assert report.passed, report.lines()


def test_all_concatenates_the_named_suites():
    combined = suites.run_suite("all", n=2, seed=5, count=3)
    separate = [
        item
        for name in suites.SUITE_NAMES[:-1]
        for item in suites.run_suite(name, n=2, seed=5, count=3).items
    ]
    assert list(combined.items) == separate
    assert combined.passed


def test_reports_are_deterministic_per_seed():
    first = suites.run_suite("laplacian", n=2, seed=9, count=4)
    second = suites.run_suite("laplacian", n=2, seed=9, count=4)
    assert first == second


def test_report_lines_and_dict_shape():
    report = suites.run_suite("axioms", n=1, seed=0, count=3)
    lines = report.lines()
    assert lines[0].startswith("suite axioms")
    assert lines[-1] == "all identities hold"
    assert all(line.startswith("[PASS]") for line in lines[1:-1])
    data = report.to_dict()
    assert data["suite"] == "axioms"
    assert data["passed"] is True
    assert {item["tag"] for item in data["items"]} == {
        "bracket-parity-shift",
        "bracket-shifted-antisymmetry",
        "bracket-left-leibniz",
        "bracket-shifted-jacobi",
    }


def test_bv_suite_includes_the_scaling_example():
    report = suites.run_suite("bv", n=1, seed=2, count=3)
    tags = [item.tag for item in report.items]
    assert "berezinian-diagonal-scaling-example" in tags
    assert report.passed


def test_mutated_bracket_is_caught_with_the_violating_tag(monkeypatch):
    original = brackets.odd_poisson_bracket

    def deformed(f, g):
        return original(f, g) + f * g

    monkeypatch.setattr(brackets, "odd_poisson_bracket", deformed)
    report = suites.run_suite("axioms", n=2, seed=5, count=4)
    assert not report.passed
    failing = {item.tag for item in report.items if not item.passed}
    assert "bracket-parity-shift" in failing
    assert any("FAIL" in line for line in report.lines())
    assert report.lines()[-1] == "FAILURES detected"


def test_each_failing_axiom_item_reports_its_own_witness(monkeypatch):
    original = brackets.odd_poisson_bracket
    monkeypatch.setattr(
        brackets, "odd_poisson_bracket", lambda f, g: original(f, g) + f * g
    )
    report = suites.run_suite("axioms", n=2, seed=5, count=12)
    prefixes = {
        "bracket-parity-shift": "parity:",
        "bracket-shifted-antisymmetry": "antisymmetry",
        "bracket-left-leibniz": "Leibniz",
        "bracket-shifted-jacobi": "Jacobi",
    }
    failing = [item for item in report.items if not item.passed]
    assert {item.tag for item in failing} == set(prefixes)
    for item in failing:
        messages = item.witness.split("; ")
        assert 1 <= len(messages) <= 2
        assert all(m.startswith(prefixes[item.tag]) for m in messages), item.witness
    # The check stops at derived.MAX_FAILURES messages, before the twelfth triple;
    # every item counts the triples actually checked.
    checked = {item.checked for item in report.items}
    assert len(checked) == 1 and 1 <= checked.pop() < 12


def test_mutated_berezinian_root_is_caught(monkeypatch):
    original = charts.sqrt_berezinian

    def deformed(transition):
        root = original(transition)
        from oddsymplectic.superalgebra import SuperFunction

        bump = SuperFunction.generator(
            root.chart, root.chart.even_coords[0]
        ) * SuperFunction.generator(root.chart, root.chart.odd_coords[0])
        return root + bump

    monkeypatch.setattr(charts, "sqrt_berezinian", deformed)
    report = suites.run_suite("bv", n=2, seed=5, count=4)
    assert not report.passed
    failing = {item.tag for item in report.items if not item.passed}
    assert "square-root-berezinian-is-closed" in failing


def test_mutated_laplacian_fails_the_exponential_identity_with_a_witness(monkeypatch):
    original = master.delta0
    monkeypatch.setattr(master, "delta0", lambda f: original(f) + f)
    report = suites.run_suite("master", n=1, count=2)
    [item] = [item for item in report.items if item.tag == "exponential-laplacian-identity"]
    assert not item.passed
    assert item.checked == 1
    assert item.witness.startswith("g = ")
    assert report.lines()[-1] == "FAILURES detected"


def _sampling_digest(monkeypatch, dimensions=(1, 2, 3)):
    """sha256 of every draw and report of the named suites at ``dimensions``, seed 1."""
    log = []

    class LoggingRandom(suites.Random):
        def random(self):
            value = super().random()
            log.append(("random", value))
            return value

        def getrandbits(self, k):
            value = super().getrandbits(k)
            log.append(("getrandbits", k, value))
            return value

    monkeypatch.setattr(suites, "Random", LoggingRandom)
    reports = [
        suites.run_suite(name, n=n, seed=1, count=3).to_dict()
        for name in suites.SUITE_NAMES[:-1]
        for n in dimensions
    ]
    text = repr(log) + json.dumps(reports, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_suites_draw_the_same_samples(monkeypatch):
    # Which inputs a suite draws is invisible in a passing report, so the
    # draw log is pinned together with the reports.
    assert _sampling_digest(monkeypatch) == SAMPLING_DIGEST


def test_suites_draw_the_same_samples_up_to_the_dimension_cap(monkeypatch):
    assert sampling.MAX_DIMENSION == 5
    assert _sampling_digest(monkeypatch, (4, 5)) == CAP_SAMPLING_DIGEST


def test_suites_report_the_same_witnesses_under_a_deformed_bracket(monkeypatch):
    original = brackets.odd_poisson_bracket
    monkeypatch.setattr(
        brackets, "odd_poisson_bracket", lambda f, g: original(f, g) + f * g
    )
    assert _sampling_digest(monkeypatch) == DEFORMED_BRACKET_DIGEST
