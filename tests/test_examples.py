"""Smoke-run every example script as a subprocess.

Examples are the front door of the repository; these tests keep them
working against API changes.  Each run asserts exit code 0 plus one
load-bearing line of expected output (a correctness statement, not timing).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("quickstart.py", [], "defect"),
    ("motivating_example.py", [], "HDagg uses"),
    ("iterative_solver.py", [], "PCG iterations"),
    ("scheduler_comparison.py", ["mesh2d-s", "sptrsv"], "algorithm"),
    ("direct_solver.py", [], "relative residual"),
    ("gauss_seidel_smoother.py", [], "stepped == sequential: True"),
    ("inspector_reuse.py", [], "scheduler choice"),
]


@pytest.mark.parametrize("script,args,expect", CASES, ids=[c[0] for c in CASES])
def test_example_runs(script, args, expect):
    path = EXAMPLES_DIR / script
    assert path.exists(), path
    proc = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert expect in proc.stdout, proc.stdout[-2000:]


def test_example_list_matches_directory():
    """Every example on disk is exercised here (no orphaned scripts)."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    tested = {c[0] for c in CASES}
    assert on_disk == tested
