"""Tests for schedule analysis reports."""

import pytest

from repro.core import hdagg, level_table, schedule_report
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS


@pytest.fixture(scope="module")
def prepared(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    cost = kernel.cost(mesh_nd)
    s = hdagg(g, cost, 4)
    return g, cost, s


def test_level_table_shape(prepared):
    g, cost, s = prepared
    rows = level_table(s, cost)
    assert len(rows) == s.n_levels
    total_vertices = sum(r["vertices"] for r in rows)
    assert total_vertices == g.n
    for r in rows:
        assert 0.0 <= r["pgp"] <= 1.0
        assert r["max_load"] >= r["mean_load"] - 1e-9
        assert 1 <= r["width"]


def test_schedule_report_content(prepared):
    g, cost, s = prepared
    text = schedule_report(s, cost)
    assert "hdagg" in text
    assert f"n={g.n}" in text
    assert "PGP" in text
    assert len(text.splitlines()) >= 3


def test_schedule_report_truncates(prepared):
    g, cost, _ = prepared
    s = SCHEDULERS["wavefront"](g, cost, 4)
    text = schedule_report(s, cost, max_rows=5)
    assert "more levels" in text
