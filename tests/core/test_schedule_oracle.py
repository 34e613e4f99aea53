"""The array accessors of ``Schedule`` against a per-partition loop oracle.

The oracle below is the former partition-list implementation, kept here as
plain loops over ``(core, vertices)`` pairs: every coordinate, the level
loads (compared bit for bit), the reversed order and the seeded
interleavings must agree with it for every scheduler x kernel on the
golden-snapshot matrices, plus fine-grained HDagg for the dynamic-core
paths.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import hdagg
from repro.kernels import KERNELS
from repro.runtime.executor import interleaved_order
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle

from ..conftest import partition_lists
from ..schedulers.test_golden_snapshots import CORES, KERNEL_NAMES, MATRICES, _schedulers_for

BUILDERS = dict(SCHEDULERS, **{"hdagg-fine": lambda g, c, p: hdagg(g, c, p, bin_pack=False)})
CELLS = [
    (mname, kname, algo)
    for mname in sorted(MATRICES)
    for kname in KERNEL_NAMES
    for algo in _schedulers_for(kname) + ["hdagg-fine"]
]


@lru_cache(maxsize=None)
def _problem(mname, kname):
    ordered, _ = apply_ordering(MATRICES[mname](), "nd")
    kernel = KERNELS[kname]
    operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
    return kernel.dag(operand), np.asarray(kernel.cost(operand), dtype=np.float64)


# ----------------------------------------------------------------------
# the oracle: loops over the per-partition view
# ----------------------------------------------------------------------
def oracle_per_vertex(n, levels, value):
    out = np.full(n, -1, dtype=np.int64)
    pid = 0
    for k, level in enumerate(levels):
        for core, vertices in level:
            out[vertices] = value(k, pid, core, vertices)
            pid += 1
    return out


def oracle_level_loads(levels, cost, n_cores):
    loads = []
    for level in levels:
        bins = np.zeros(n_cores, dtype=np.float64)
        for core, vertices in level:
            c = float(cost[vertices].sum())
            if core >= 0:
                bins[core % n_cores] += c
            else:
                bins[int(np.argmin(bins))] += c
        loads.append(bins)
    return loads


def oracle_interleaved(levels, seed):
    rng = np.random.default_rng(seed)
    chunks = []
    for level in levels:
        cursors = [0] * len(level)
        remaining = [vertices.size for _, vertices in level]
        out = np.empty(sum(remaining), dtype=np.int64)
        filled = 0
        active = [k for k, r in enumerate(remaining) if r]
        while active:
            k = active[int(rng.integers(len(active)))]
            out[filled] = level[k][1][cursors[k]]
            filled += 1
            cursors[k] += 1
            if cursors[k] == remaining[k]:
                active.remove(k)
        chunks.append(out)
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def flat(levels):
    chunks = [vertices for level in levels for _, vertices in level]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


@pytest.mark.parametrize("mname, kname, algo", CELLS)
def test_accessors_match_partition_loops(mname, kname, algo):
    g, cost = _problem(mname, kname)
    s = BUILDERS[algo](g, cost, CORES)
    levels = partition_lists(s)
    assert len(levels) == s.n_levels
    assert sum(len(level) for level in levels) == s.n_partitions

    np.testing.assert_array_equal(s.execution_order(), flat(levels))
    np.testing.assert_array_equal(s.level_of(), oracle_per_vertex(s.n, levels, lambda k, j, c, v: k))
    np.testing.assert_array_equal(
        s.partition_of(), oracle_per_vertex(s.n, levels, lambda k, j, c, v: j)
    )
    np.testing.assert_array_equal(
        s.position_of(), oracle_per_vertex(s.n, levels, lambda k, j, c, v: np.arange(v.size))
    )
    np.testing.assert_array_equal(
        s.core_assignment(), oracle_per_vertex(s.n, levels, lambda k, j, c, v: c)
    )

    # the kernel costs are integer counts, so also sum fractional costs,
    # where any change of summation order shows in the bits
    fractional = np.random.default_rng(0).uniform(0.1, 10.0, size=s.n)
    for c in (cost, fractional):
        got = s.level_loads(c)
        want = oracle_level_loads(levels, c, s.n_cores)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    mirrored = [[(c, v[::-1]) for c, v in level] for level in reversed(levels)]
    np.testing.assert_array_equal(s.reversed().execution_order(), flat(mirrored))

    for seed in range(3):
        np.testing.assert_array_equal(
            interleaved_order(s, seed=seed), oracle_interleaved(levels, seed)
        )
