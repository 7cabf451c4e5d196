"""Run one ``oddsymplectic`` command line with the layer tracer installed.

Used by traced ``cli-cold`` runs in place of ``python -m oddsymplectic``:
the command's output and exit code are unchanged, and one extra stderr line
carries the import time, the time in ``cli.main`` and the tracer's counters.

    PYTHONPATH=src python perfbench/cli_probe.py bracket x1 th1
"""

from __future__ import annotations

import json
import sys
import time

from layertrace import TRACE_MARKER, Tracer


def main() -> int:
    start = time.perf_counter()
    from oddsymplectic import cli

    import_s = time.perf_counter() - start
    with Tracer() as tracer:
        start = time.perf_counter()
        code = cli.main(sys.argv[1:])
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    report = {"import_s": import_s, "main_s": main_s, "state": tracer.state()}
    print(TRACE_MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
