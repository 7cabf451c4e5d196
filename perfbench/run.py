"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload flat-brackets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  With ``--trace 0`` the workload runs
as a closed loop with one caller for ``--seconds`` seconds and the
end-to-end metrics are printed; with ``--trace 1`` one fixed pass over the
workload's operations runs untraced and then traced, and the per-layer
metrics are printed.  The last stdout line is the result object; the line
before it records the seed, the machine and the operation counts.  The exit
code is 0 when every operation was verified, 1 when one failed, and 2 when
the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "oddsymplectic"

import workloads  # noqa: E402  (HERE is sys.path[0] when run as a script)
from layertrace import Tracer  # noqa: E402

# Set-up (import plus building inputs) and, in traced runs, the import of
# the CLI module are repeated and their medians reported.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5


def import_fresh(module: str = PACKAGE):
    """Drop every loaded package module, then import ``module`` from ``src``."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    importlib.import_module(module)
    return sys.modules[PACKAGE]


def set_up(name: str, seed: int) -> tuple[float, workloads.Workload]:
    start = time.perf_counter()
    lib = import_fresh()
    workload = workloads.build(lib, name, seed, ROOT)
    return time.perf_counter() - start, workload


def attempt(op: workloads.Op) -> bool:
    try:
        return op.run() is True
    except Exception:  # any exception is a failed operation, counted below
        return False


def warm_up(workload: workloads.Workload) -> None:
    for op in workload.warm_up_ops():
        attempt(op)
    gc.collect()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, workload = set_up(name, seed)
        setups.append(elapsed)
    warm_up(workload)
    ops = workload.ops
    latencies: list[float] = []
    failed = 0
    clock = time.perf_counter
    start = clock()
    stop = start + seconds
    finish = start
    index = 0
    while finish < stop:
        op = ops[index % len(ops)]
        index += 1
        began = clock()
        ok = attempt(op)
        finish = clock()
        latencies.append(finish - began)
        failed += not ok
    attempted = len(latencies)
    percentile, tail_s = tail(latencies)
    usage = resource.RUSAGE_CHILDREN if workload.runner else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (attempted - failed) / (finish - start),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "verified_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    record = {
        "ops": len(ops),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "tail_percentile": round(percentile, 2),
        "tail_samples_beyond": 10 if attempted > 10 else 0,
        "setup_runs_s": setups,
    }
    return metrics, record


def run_pass(ops: list[workloads.Op]) -> int:
    return sum(not attempt(op) for op in ops)


def traced_run(name: str, seed: int) -> tuple[dict, dict]:
    """Build the inputs and run one pass, first untraced and then traced.

    Both halves cover the same work: building the workload's inputs from
    the seed, then every operation once, so the counts repeat exactly.
    """
    imports = []
    if name != "cli-cold":
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            import_fresh(PACKAGE + ".cli")
            imports.append(time.perf_counter() - start)
    lib = import_fresh()
    warm_up(workloads.build(lib, name, seed, ROOT))

    start = time.perf_counter()
    workload = workloads.build(lib, name, seed, ROOT)
    failed = run_pass(workload.ops)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        workload = workloads.build(lib, name, seed, ROOT)
        runner = workload.runner
        if runner is not None:
            runner.probe = True
        failed += run_pass(workload.ops)
        traced_s = time.perf_counter() - start
    main_s = 0.0
    if runner is not None:
        for report in runner.reports:
            tracer.merge(report["state"])
        imports = [report["import_s"] for report in runner.reports]
        main_s = statistics.median(report["main_s"] for report in runner.reports)
    metrics = tracer.metrics()
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.main_s"] = main_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    record = {
        "ops": len(workload.ops),
        "attempted": 2 * len(workload.ops),
        "failed": failed,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        if args.trace:
            metrics, record = traced_run(args.workload, args.seed)
        else:
            metrics, record = timed_run(args.workload, args.seed, args.seconds)
    finally:
        workloads.clean_work_dir(ROOT)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **record,
    }
    print(json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
