"""The ``hdagg-bench analyze`` entry point and its harness integration."""

import json

import pytest

from repro.analysis.cli import analyze_grid, analyze_main
from repro.suite.cli import main as suite_main
from repro.suite.matrices import SUITE

SMALL = "mesh2d-s"
FAST = ["--matrices", SMALL, "--kernels", "sptrsv", "--schedulers", "hdagg", "wavefront",
        "--cores", "2"]


def test_analyze_clean_exit_zero(capsys):
    assert analyze_main(FAST) == 0
    out = capsys.readouterr()
    assert "ok" in out.out and "0 findings" in out.err


def test_analyze_via_suite_cli_dispatch(capsys):
    assert suite_main(["analyze"] + FAST) == 0
    assert "0 findings" in capsys.readouterr().err


def test_analyze_requires_a_selection(capsys):
    assert analyze_main([]) == 2
    assert "nothing to analyze" in capsys.readouterr().err


def test_analyze_rejects_unknown_names(capsys):
    assert analyze_main(["--matrices", SMALL, "--kernels", "nope"]) == 2
    assert analyze_main(["--matrices", SMALL, "--schedulers", "nope"]) == 2


def test_analyze_json_dump(tmp_path, capsys):
    path = tmp_path / "analyze.json"
    assert analyze_main(FAST + ["--mutate", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["n_findings"] == 0
    row = payload["rows"][0]
    assert row["ok"] and row["verifier"]["ok"] and row["races"]["ok"]
    assert row["mutations"]["caught"] == row["mutations"]["applied"]
    assert not row["mutations"]["escaped"]


def test_analyze_trace_mode(capsys):
    assert analyze_main(FAST + ["--trace"]) == 0


def test_analyze_grid_rows_cover_the_grid():
    specs = [s for s in SUITE if s.name == SMALL]
    rows = analyze_grid(specs, kernels=("sptrsv", "spic0"), schedulers=["hdagg", "mkl"],
                        cores=2)
    combos = {(r["kernel"], r["algorithm"]) for r in rows}
    # MKL is SpTRSV-only: it must be dropped from the factorisation kernels
    assert combos == {("sptrsv", "hdagg"), ("sptrsv", "mkl"), ("spic0", "hdagg")}
    assert all(r["ok"] for r in rows)


def test_analyze_grid_rejects_footprintless_kernel():
    specs = [s for s in SUITE if s.name == SMALL]
    with pytest.raises(KeyError, match="footprint"):
        analyze_grid(specs, kernels=("gauss_seidel",), schedulers=["hdagg"])


def test_harness_records_carry_verify_timing():
    """Acceptance: verifier runtime lands in RunRecord.stage_seconds."""
    from repro.suite.harness import Harness

    spec = next(s for s in SUITE if s.name == SMALL)
    records = Harness(machines=["laptop4"], kernels=["sptrsv"]).run_suite([spec])
    assert records
    for r in records:
        if not r.schedule_cached:
            assert r.stage_seconds.get("verify", 0.0) > 0.0


def test_trace_and_mutate_verdicts_are_deterministic():
    """Two runs of the stepped trace check give the same rows, bar timing."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "seconds"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    specs = [s for s in SUITE if s.name in ("mesh2d-s", "mesh3d-s")]
    runs = [
        analyze_grid(specs, kernels=("sptrsv", "spilu0"),
                     schedulers=["hdagg", "spmp", "wavefront"], trace=True, mutate=True)
        for _ in range(2)
    ]
    assert len(runs[0]) == 12 and all(r["ok"] for r in runs[0])
    assert all(r["trace"]["n_events"] > 0 for r in runs[0])
    assert strip(runs[0]) == strip(runs[1])
