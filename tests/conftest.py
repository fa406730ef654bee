"""Pytest wiring: BLAS threads as the benchmark pins them, and the acceptance summary block.

The fitted bits depend on the BLAS thread count, so the suite runs with the
benchmark's thread variables (``bench/run.py``'s ``THREAD_VARS``) set to one
unless the environment sets them; that keeps a digest from a benchmark
record checkable in a test run.  They take effect only if they are set
before numpy is first imported, which is why this happens here.

Acceptance tests record one line each through ``record_acceptance``; the
terminal-summary hook replays them after the run so the verdicts are visible
without -s even when every test passes.
"""

import importlib.util
import os
from pathlib import Path

_spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).resolve().parents[1] / "bench" / "run.py")
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
for _var in _bench_run.THREAD_VARS:
    os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
