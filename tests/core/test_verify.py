"""Tests for the one-call schedule verifier."""

import numpy as np
import pytest

from repro.core import Schedule, ScheduleError, hdagg
from repro.core.verify import verify_schedule
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle


@pytest.fixture(scope="module")
def setup(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    return kernel, low, g


def test_good_schedule_passes(setup):
    kernel, low, g = setup
    s = hdagg(g, kernel.cost(low), 4)
    report = verify_schedule(kernel, low, s, g)
    assert report.ok
    assert report.interleavings_checked == 2
    report.raise_if_failed()  # no-op


@pytest.mark.parametrize("algo", ["wavefront", "spmp", "lbc", "dagp"])
def test_all_baselines_pass(setup, algo):
    kernel, low, g = setup
    s = SCHEDULERS[algo](g, kernel.cost(low), 4)
    assert verify_schedule(kernel, low, s, g, interleavings=1).ok


def test_structural_failure_reported(setup):
    kernel, low, g = setup
    bad = Schedule.from_partitions(
        n=g.n,
        levels=[[(0, np.arange(g.n - 1))]],  # drops a vertex
        sync="barrier", algorithm="bad", n_cores=1,
    )
    report = verify_schedule(kernel, low, bad, g)
    assert not report.structural_ok
    assert not report.ok
    assert any("structural" in e for e in report.errors)
    with pytest.raises(ScheduleError):
        report.raise_if_failed()


def test_dependence_failure_reported(setup):
    kernel, low, g = setup
    bad = Schedule.from_partitions(
        n=g.n,
        levels=[[(0, np.arange(g.n)[::-1].copy())]],
        sync="barrier", algorithm="bad", n_cores=1,
    )
    report = verify_schedule(kernel, low, bad, g)
    assert report.structural_ok
    assert not report.dependences_ok
    assert any("dependences" in e for e in report.errors)


def test_dag_inferred_when_omitted(setup):
    kernel, low, g = setup
    s = hdagg(g, kernel.cost(low), 2)
    assert verify_schedule(kernel, low, s).ok


def test_factorisation_kernels_verify(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    s = hdagg(g, kernel.cost(mesh_nd), 4)
    assert verify_schedule(kernel, mesh_nd, s, g, interleavings=1).ok
