"""Golden-snapshot tests: every scheduler's partitions are frozen (S1).

Schedulers must be bit-deterministic — the schedule cache, the resumable
journal, and every paper table depend on a (matrix, kernel, algorithm,
cores) cell always producing the *same* partitioning.  This suite hashes
the full schedule structure (sync model, fine-grained flag, every level's
partitions with their core assignments and exact vertex arrays) for every
scheduler x kernel over four fixed seeded matrices and compares against
``golden_schedules.json``.

A digest mismatch means the inspector's output changed.  If the change is
intentional, regenerate the snapshot and review the diff like any other
behavioural change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/schedulers/test_golden_snapshots.py
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import (
    apply_ordering,
    banded_spd,
    lower_triangle,
    poisson2d,
    power_law_spd,
    random_spd,
)

GOLDEN_PATH = Path(__file__).with_name("golden_schedules.json")
CORES = 8
KERNEL_NAMES = ("sptrsv", "spic0", "spilu0")

#: name -> builder; seeds are pinned so the matrices never drift
MATRICES = {
    "poisson2d-12": lambda: poisson2d(12, seed=0),
    "banded-160": lambda: banded_spd(160, 6, seed=3),
    "random-150": lambda: random_spd(150, 4.0, seed=7),
    "powerlaw-150": lambda: power_law_spd(150, 5.0, seed=11),
}


def _schedulers_for(kernel: str):
    # MKL's SpIC0/SpILU0 are not parallel (Section V): sptrsv only
    return [a for a in sorted(SCHEDULERS) if not (a == "mkl" and kernel != "sptrsv")]


def schedule_digest(schedule) -> str:
    """SHA-256 over the canonical byte encoding of a schedule's structure."""
    h = hashlib.sha256()
    h.update(f"sync={schedule.sync};fine={schedule.fine_grained};"
             f"n={schedule.n};levels={schedule.n_levels};".encode())
    order = np.ascontiguousarray(schedule.order, dtype=np.int64)
    ptr = schedule.part_ptr.tolist()
    for j, (k, core) in enumerate(
        zip(schedule.partition_level().tolist(), schedule.part_core.tolist())
    ):
        h.update(f"L{k}c{core}:".encode())
        h.update(order[ptr[j] : ptr[j + 1]].tobytes())
        h.update(b";")
    return h.hexdigest()


def compute_digests() -> dict:
    """The full snapshot: matrix -> kernel -> algorithm -> digest."""
    out = {}
    for mname, build in MATRICES.items():
        ordered, _ = apply_ordering(build(), "nd")
        per_kernel = {}
        for kname in KERNEL_NAMES:
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            g = kernel.dag(operand)
            cost = kernel.cost(operand)
            per_kernel[kname] = {
                algo: schedule_digest(SCHEDULERS[algo](g, cost, CORES))
                for algo in _schedulers_for(kname)
            }
        out[mname] = per_kernel
    return out


@pytest.fixture(scope="module")
def current_digests():
    digests = compute_digests()
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests


@pytest.fixture(scope="module")
def golden(current_digests):
    # depends on current_digests so REGEN_GOLDEN writes before any read
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — generate it with REGEN_GOLDEN=1"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_snapshot_covers_the_full_grid(golden):
    assert sorted(golden) == sorted(MATRICES)
    for mname, per_kernel in golden.items():
        assert sorted(per_kernel) == sorted(KERNEL_NAMES)
        for kname, per_algo in per_kernel.items():
            assert sorted(per_algo) == _schedulers_for(kname)


@pytest.mark.parametrize("mname", sorted(MATRICES))
def test_schedules_match_golden_snapshot(mname, current_digests, golden):
    assert current_digests[mname] == golden[mname], (
        f"schedule drift on {mname}: an inspector now partitions this matrix "
        f"differently; if intentional, regenerate with REGEN_GOLDEN=1 and "
        f"review the diff"
    )


def test_digests_are_stable_within_a_process():
    """Back-to-back runs of one cell must agree (no hidden RNG state)."""
    ordered, _ = apply_ordering(MATRICES["random-150"](), "nd")
    operand = lower_triangle(ordered)
    kernel = KERNELS["sptrsv"]
    g, cost = kernel.dag(operand), kernel.cost(operand)
    for algo in _schedulers_for("sptrsv"):
        d1 = schedule_digest(SCHEDULERS[algo](g, cost, CORES))
        d2 = schedule_digest(SCHEDULERS[algo](g, cost, CORES))
        assert d1 == d2, f"{algo} is nondeterministic"
