"""Tests of the benchmark itself: ``pytest bench -q`` from the repository root.

They call the workload functions directly with small op counts, so they run
in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from layers import LAYERS, SUITE_SPECS, Layers  # noqa: E402
from measure import measure as run_measure, run_phase  # noqa: E402
from spans import OTHER, Recorder, ledger  # noqa: E402
from workloads import ColdSolve, PaperGrid, PatternStream, PcgReuse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TinyCold(ColdSolve):
    FAMILIES = (("poisson2d", 8, 14), ("random_spd", 100, 250), ("kite_chain_spd", 8, 20))


SMALL = {
    "cold-solve": TinyCold(per_pair=1),
    "pcg-reuse": PcgReuse(rhs=2),
    "paper-grid": PaperGrid(matrices=("mesh2d-s", "mesh3d-s")),
    "pattern-stream": PatternStream(ops=40, scale=0.05, max_entries=8),
}
SEEDED = ("cold-solve", "pcg-reuse", "pattern-stream")


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs per workload, on seed 0."""
    out = tmp_path_factory.mktemp("out")
    return {
        name: [run_measure(w, 0, True, out) for _ in range(2)] + [out]
        for name, w in SMALL.items()
    }


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(SMALL)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME_RE.fullmatch(m["name"]) and UNIT_RE.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", SEEDED)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = SMALL[name]
    assert w.digest(w.make_inputs(0)) == w.digest(w.make_inputs(0))
    assert w.digest(w.make_inputs(0)) != w.digest(w.make_inputs(1))


def test_paper_grid_ignores_the_seed():
    w = SMALL["paper-grid"]
    assert w.digest(w.make_inputs(0)) == w.digest(w.make_inputs(1))


def test_paper_grid_takes_the_smallest_matrix_of_each_family():
    smallest = {}
    for name, (family, build) in SUITE_SPECS.items():
        nnz = build().nnz
        if family not in smallest or nnz < smallest[family][0]:
            smallest[family] = (nnz, name)
    assert sorted(PaperGrid.MATRICES) == sorted(name for _, name in smallest.values())


@pytest.mark.parametrize("name", list(SMALL))
def test_emitted_metrics_are_declared(name, traced_runs):
    untraced = run_measure(SMALL[name], 0, False, None)
    traced = traced_runs[name][0]
    declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"] for m in SPEC["per_layer"]}
    # setup_s is measured by run.py from fresh interpreters, not by the workload
    assert declared_e2e - {"setup_s"} <= set(untraced["metrics"])
    assert set(untraced["metrics"]) <= declared_e2e | declared_layer
    assert set(traced["metrics"]) == declared_layer
    for result in (untraced, traced):
        assert result["failed"] == 0, result["errors"]
        assert all(NAME_RE.fullmatch(m) for m in result["metrics"])
        assert all(v == v and v >= 0 or m == "trace.overhead_ratio"
                   for m, v in result["metrics"].items())
    assert set(traced["ledger"]) <= set(LAYERS) | {OTHER}


DETERMINISTIC = (
    "model_speedup.gmean", "model_vs_best.gmean", "solver_iters.mean",
    "cache.hits", "cache.repairs", "cache.fulls", "cache.repair_fallbacks",
    "simulate.barriers", "simulate.p2p_syncs", "simulate.hit_rate.mean",
    "simulate.potential_gain.mean",
    "ordering.rows", "dag.edges", "verify.edges", "execute.vertices", "pcg.iters",
)


@pytest.mark.parametrize("name", list(SMALL))
def test_deterministic_metrics_repeat_exactly(name, traced_runs):
    first, second, _ = traced_runs[name]
    assert {m: first["metrics"][m] for m in DETERMINISTIC} == {
        m: second["metrics"][m] for m in DETERMINISTIC
    }


def test_workload_specific_counts_are_live(traced_runs):
    grid = traced_runs["paper-grid"][0]["metrics"]
    assert grid["model_speedup.gmean"] > 1 and grid["model_vs_best.gmean"] > 0
    assert grid["simulate.barriers"] > 0
    assert traced_runs["pcg-reuse"][0]["metrics"]["solver_iters.mean"] > 0
    stream = traced_runs["pattern-stream"][0]["metrics"]
    assert stream["cache.hits"] > 0 and stream["cache.fulls"] > 0
    assert stream["cache.hits"] + stream["cache.repairs"] + stream["cache.fulls"] == 40


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_writes_spans(name, traced_runs):
    out = traced_runs[name][2]
    spans = (out / f"{name}.spans.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"name", "op", "parent", "start_ns", "end_ns"}


@pytest.mark.parametrize("name", list(SMALL))
def test_ledger_adds_up_to_the_timed_time(name):
    w = SMALL[name]
    phase = run_phase(w, w.make_inputs(0), Recorder())
    rows = ledger(phase.recorder.spans, phase.timed_ns)
    assert sum(r["self_ns"] for r in rows.values()) == phase.timed_ns
    assert all(r["self_ns"] >= 0 for r in rows.values())
    assert rows[OTHER]["share"] <= 0.05


def test_broken_schedule_is_one_failed_op(monkeypatch):
    """A reversed execution order, or an acquire that raises, fails one op; the run goes on."""

    inspected, acquired = [], []

    class BrokenOnce(Layers):
        def inspect(self, algo, g, cost):
            schedule = super().inspect(algo, g, cost)
            inspected.append(algo)
            return schedule.reversed() if len(inspected) == 1 else schedule

        def new_cache(self, max_entries):
            cache = super().new_cache(max_entries)
            acquire = cache.acquire

            def acquire_once_broken(*args, **kwargs):
                acquired.append(1)
                if len(acquired) == 1:
                    raise RuntimeError("acquire failed")
                return acquire(*args, **kwargs)

            cache.acquire = acquire_once_broken
            return cache

    monkeypatch.setattr(measure, "Layers", BrokenOnce)
    w = SMALL["cold-solve"]
    inputs = w.make_inputs(0)
    phase = run_phase(w, inputs)
    assert phase.attempted == len(inputs) == len(phase.op_ns)
    assert phase.failed == 1 and dict(phase.failures) == {"verify": 1}
    assert measure.quality(w, phase)["fail_rate"] == pytest.approx(1 / len(inputs))

    w = SMALL["pattern-stream"]
    inputs = w.make_inputs(0)
    phase = run_phase(w, inputs, Recorder())
    assert phase.attempted == len(inputs)
    assert phase.failed == 1 and dict(phase.failures) == {"cache.full": 1}
    assert set(ledger(phase.recorder.spans, phase.timed_ns)) <= set(LAYERS) | {OTHER}


def _run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-solve", *args],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, no result is printed."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_py(tmp_path, "--seconds", str(SPEC["run_seconds"]))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program source" in proc.stderr


def test_run_length_cannot_be_changed():
    proc = _run_py(ROOT, "--seconds", str(SPEC["run_seconds"] + 1))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
