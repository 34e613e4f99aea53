"""Shared benchmark fixtures.

Every ``bench_*`` file regenerates one of the paper's tables or figures.
The underlying run records are computed once per session (they are pure
functions of the suite) and cached here; each benchmark then times a
representative piece of real work (an inspector, a simulation, or the
table regeneration) so ``pytest benchmarks/ --benchmark-only`` reports
meaningful numbers, and writes the regenerated table/figure text to
``benchmarks/output/``.

Dataset size: by default a 12-matrix subset spanning every family and both
Table III size buckets (full-suite records cost many minutes of pure-Python
inspection).  Set ``HDAGG_BENCH_FULL=1`` to run all 34 matrices.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from _common import OUTPUT_DIR, bench_specs
from repro.suite import Harness


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def records_intel():
    """Full grid (3 kernels x 6 algorithms) on the intel20 model."""
    return Harness(machines=("intel20",)).run_suite(bench_specs())


@pytest.fixture(scope="session")
def records_amd():
    """Full grid on the amd64 model (Table I's second column block)."""
    return Harness(machines=("amd64",)).run_suite(bench_specs())
