"""Tests of the benchmark itself: determinism, counters and the run contract.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oddsymplectic as lib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced(ops: list[workloads.Op]) -> dict[str, float]:
    with Tracer() as tracer:
        assert all(op.run() for op in ops)
    return tracer.metrics()


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def flat_traces() -> list[dict]:
    """Two traced flat-brackets runs with the same seed, in fresh processes."""
    out = []
    for _ in range(2):
        proc = run_bench("--workload", "flat-brackets", "--seed", "7", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def test_traced_counts_repeat_exactly(flat_traces):
    first, second = (t["metrics"] for t in flat_traces)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert len(counts) == 16
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    assert all(t["correct"] and t["failed"] == 0 for t in flat_traces)


def test_flat_brackets_makes_no_gcd_calls(flat_traces):
    metrics = flat_traces[0]["metrics"]
    assert metrics["poly.gcd.calls"]["value"] == 0
    assert metrics["poly.mul.calls"]["value"] > 0
    assert metrics["forms.calls"]["value"] > 0
    assert metrics["master.calls"]["value"] > 0


def test_transitions_never_fall_back_to_prs():
    ops = workloads.build(lib, "transitions", 3, ROOT).ops
    metrics = traced(ops)
    assert metrics["poly.gcd_prs.calls"] == 0
    assert metrics["charts.berezinian.calls"] > 0
    assert metrics["superalgebra.substitute.calls"] > 0


def test_rational_laplacian_gcd_paths_split_by_coefficients():
    ops = workloads.build(lib, "rational-laplacian", 3, ROOT).ops
    real = traced([op for op in ops if op.tag == "real"])
    assert real["poly.gcd.calls"] > 0
    assert real["poly.gcd_prs.calls"] == 0
    assert real["poly.gcd_heuristic.hit_ratio"] == 1.0
    gaussian = traced([op for op in ops if op.tag == "gaussian"][:3])
    assert gaussian["poly.gcd_prs.calls"] > 0


def test_tracer_restores_the_library():
    original = lib.odd_poisson_bracket
    mul = lib.Polynomial.__mul__
    with Tracer():
        assert lib.odd_poisson_bracket is not original
        assert lib.Polynomial.__mul__ is not mul
    assert lib.odd_poisson_bracket is original
    assert lib.Polynomial.__mul__ is mul


def test_inputs_follow_the_seed():
    shape = (("x1", "x2"), ("th1", "th2"), ((1, 1), (2, 0), (0, 2)))
    same = [workloads.Sampler(5, "t").superfunction(*shape) for _ in range(2)]
    other = workloads.Sampler(6, "t").superfunction(*shape)
    assert same[0] == same[1]
    assert other != same[0]
    # Only coefficients depend on the seed; generators and degrees do not.
    def factors(text: str) -> list[list[str]]:
        return [term.lstrip("-").split("*")[1:] for term in re.split(r" [+-] ", text)]

    assert factors(other) == factors(same[0])


def test_failures_are_counted():
    def boom() -> bool:
        raise ZeroDivisionError

    assert run.attempt(workloads.Op("k", "t", lambda: True))
    assert not run.attempt(workloads.Op("k", "t", lambda: False))
    assert not run.attempt(workloads.Op("k", "t", boom))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", "flat-brackets", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
