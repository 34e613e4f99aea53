"""Footprint models and the static race detector."""

import numpy as np
import pytest

from repro.analysis import (
    detect_races,
    implied_dag,
    kernel_footprint,
    spic0_footprint,
    spilu0_footprint,
    sptrsv_footprint,
)
from repro.core.schedule import Schedule
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import csr_from_dense, lower_triangle


@pytest.fixture(scope="module")
def tiny_chain():
    """L = unit-ish lower bidiagonal: x1 needs x0, x2 needs x1."""
    return csr_from_dense(np.array([[2.0, 0, 0], [1, 2, 0], [0, 1, 2]]))


def _sched(levels, n, sync="barrier"):
    return Schedule.from_partitions(
        n=n,
        levels=[[(c, np.asarray(v, dtype=np.int64)) for c, v in lev] for lev in levels],
        sync=sync,
        algorithm="manual",
        n_cores=max(len(lev) for lev in levels),
    )


def test_sptrsv_footprint_by_hand(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    assert fp.n == 3 and fp.n_locations == 3
    assert fp.reads(0).tolist() == [] and fp.writes(0).tolist() == [0]
    assert fp.reads(1).tolist() == [0] and fp.writes(1).tolist() == [1]
    assert fp.reads(2).tolist() == [1] and fp.writes(2).tolist() == [2]
    assert fp.n_accesses == 5


def test_spic0_footprint_by_hand(tiny_spd):
    # lower pattern rows: {0}, {0,1}, {1,2} -> slots 0 | 1,2 | 3,4
    fp = spic0_footprint(tiny_spd)
    assert fp.n_locations == 5
    assert fp.writes(0).tolist() == [0] and fp.reads(0).tolist() == []
    assert fp.writes(1).tolist() == [1, 2] and fp.reads(1).tolist() == [0]
    assert fp.writes(2).tolist() == [3, 4] and fp.reads(2).tolist() == [1, 2]


def test_spilu0_footprint_by_hand(tiny_spd):
    # full pattern rows: {0,1}, {0,1,2}, {1,2} -> slots 0,1 | 2,3,4 | 5,6
    fp = spilu0_footprint(tiny_spd)
    assert fp.n_locations == 7
    assert fp.writes(0).tolist() == [0, 1] and fp.reads(0).tolist() == []
    # row 1 depends on row 0: reads its diagonal + upper slots {0, 1}
    assert fp.writes(1).tolist() == [2, 3, 4] and fp.reads(1).tolist() == [0, 1]
    # row 2 depends on row 1: reads diag..end of row 1, slots {3, 4}
    assert fp.writes(2).tolist() == [5, 6] and fp.reads(2).tolist() == [3, 4]


def test_spilu0_requires_full_diagonal():
    a = csr_from_dense(np.array([[1.0, 0], [1.0, 0]]))
    with pytest.raises(ValueError, match="diagonal"):
        spilu0_footprint(a)


def test_kernel_footprint_registry(tiny_spd):
    fp = kernel_footprint("spic0", tiny_spd)
    assert fp.n == 3
    with pytest.raises(KeyError, match="gauss"):
        kernel_footprint("gauss_seidel", tiny_spd)


@pytest.mark.parametrize("kname", ["sptrsv", "spic0", "spilu0"])
def test_implied_dag_matches_kernel_dag(kname, mesh_nd):
    """The footprints must re-derive exactly the kernel's dependence DAG."""
    kernel = KERNELS[kname]
    operand = lower_triangle(mesh_nd) if kname == "sptrsv" else mesh_nd
    g = kernel.dag(operand)
    h = implied_dag(kernel_footprint(kname, operand))
    assert set(zip(*map(np.ndarray.tolist, g.edge_list()))) == set(
        zip(*map(np.ndarray.tolist, h.edge_list()))
    )


def test_write_read_race_flagged(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    # 0 and 1 in the same wavefront on different partitions: 1 reads x[0]
    s = _sched([[(0, [0]), (1, [1])], [(0, [2])]], 3)
    report = detect_races(s, fp)
    assert not report.ok and report.n_conflicting_groups == 1
    w = report.witnesses[0]
    assert (w.location, w.level) == (0, 0)
    assert w.writer == 0 and w.other == 1 and not w.other_is_write
    assert "write/read" in w.describe() and "RACES" in report.describe()
    assert w.as_dict()["other_partition"] != w.as_dict()["writer_partition"]


def test_write_write_race_flagged():
    # two rows writing the same factor slots concurrently
    a = csr_from_dense(np.array([[2.0, 1, 0], [1, 2, 0], [0, 0, 2]]))
    fp = spilu0_footprint(a)
    # rows 0 and 1 conflict (1 reads/writes row 0's slots); same wavefront
    s = _sched([[(0, [0]), (1, [1]), (2, [2])]], 3)
    report = detect_races(s, fp)
    assert not report.ok


def test_same_partition_not_a_race(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    # sequential within one partition: ordered, never concurrent
    s = _sched([[(0, [0, 1, 2])]], 3)
    assert detect_races(s, fp).ok


def test_different_levels_not_a_race(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    s = _sched([[(0, [0])], [(0, [1])], [(0, [2])]], 3)
    assert detect_races(s, fp).ok


def test_read_read_sharing_not_a_race():
    # rows 1 and 2 both read x[0] only: concurrent reads are fine
    low = csr_from_dense(np.array([[2.0, 0, 0], [1, 2, 0], [1, 0, 2]]))
    fp = sptrsv_footprint(low)
    s = _sched([[(0, [0])], [(0, [1]), (1, [2])]], 3)
    assert detect_races(s, fp).ok


def test_footprint_schedule_size_mismatch(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    s = _sched([[(0, [0, 1])]], 2)
    with pytest.raises(ValueError, match="iterations"):
        detect_races(s, fp)


def test_race_meta_stamping(tiny_chain):
    fp = sptrsv_footprint(tiny_chain)
    s = _sched([[(0, [0, 1, 2])]], 3)
    report = detect_races(s, fp)
    assert report.ok and report.n_accesses == fp.n_accesses
    assert s.meta["stage_seconds"]["race_detect"] >= report.seconds > 0.0
    detect_races(s, fp, stamp_meta=False)
    before = s.meta["stage_seconds"]["race_detect"]
    assert s.meta["stage_seconds"]["race_detect"] == before


@pytest.mark.parametrize("kname", ["sptrsv", "spic0", "spilu0"])
@pytest.mark.parametrize("algo", sorted(SCHEDULERS))
def test_all_schedulers_race_free(kname, algo, mesh_nd):
    if algo == "mkl" and kname != "sptrsv":
        pytest.skip("MKL baseline is SpTRSV-only")
    kernel = KERNELS[kname]
    operand = lower_triangle(mesh_nd) if kname == "sptrsv" else mesh_nd
    g = kernel.dag(operand)
    s = SCHEDULERS[algo](g, kernel.cost(operand), 4)
    report = detect_races(s, kernel_footprint(kname, operand))
    assert report.ok, report.describe()
