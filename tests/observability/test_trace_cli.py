"""End-to-end tests for ``hdagg-bench trace`` and the dormant-path contract."""

import json

import pytest

from repro.observability.trace_cli import build_trace_parser, trace_main
from repro.suite.cli import main as suite_main

#: timing-derived RunRecord fields — wall-clock, so they differ between any
#: two runs regardless of instrumentation; everything else is deterministic
_TIMING_FIELDS = ("inspector_seconds", "inspector_cycles", "nre", "stage_seconds")


def test_parser_defaults():
    args = build_trace_parser().parse_args([])
    assert args.matrix == "mesh2d-s"
    assert args.kernel == "sptrsv"
    assert args.algorithm == "hdagg"
    assert args.out == "trace-out"


def test_trace_main_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "traces"
    rc = trace_main(["--matrix", "mesh2d-s", "--machine", "laptop4",
                     "--out", str(out)])
    assert rc == 0
    spans = [json.loads(line)
             for line in (out / "spans.jsonl").read_text().splitlines()]
    assert any(s["name"] == "inspect/hdagg" for s in spans)
    assert any(s["name"].startswith("execute/wavefront[") for s in spans)
    assert any(s["name"].startswith("execute/partition[") for s in spans)

    trace = json.loads((out / "trace.json").read_text())
    model = json.loads((out / "model_trace.json").read_text())
    for doc in (trace, model):
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
    # the model trace carries the simulator's per-core rows
    model_meta = [e["args"]["name"] for e in model["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "core 0" in model_meta

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["version"] == 1
    m = metrics["metrics"]
    assert m["inspector.runs.hdagg"]["value"] == 1.0
    assert "inspector.vertices_coarsened" in m
    assert "inspector.pgp_at_merge" in m
    assert "simulator.makespan_cycles" in m

    text = capsys.readouterr().out
    assert "per-core utilization" in text or "core" in text
    assert "sync" in text


def test_trace_main_model_only(tmp_path):
    out = tmp_path / "t"
    rc = trace_main(["--matrix", "mesh2d-s", "--machine", "laptop4",
                     "--algorithm", "spmp", "--no-threaded",
                     "--out", str(out)])
    assert rc == 0
    # no stepped run: no executor spans, but the model timeline exists
    spans = [json.loads(line)
             for line in (out / "spans.jsonl").read_text().splitlines()]
    assert not any(s["name"].startswith("execute/") for s in spans)
    assert (out / "model_trace.json").exists()


def test_trace_main_rejects_unknown_scheduler(capsys):
    assert trace_main(["--algorithm", "nope"]) == 2
    assert "unknown scheduler" in capsys.readouterr().err


def test_trace_subcommand_dispatches_through_hdagg_bench(tmp_path):
    rc = suite_main(["trace", "--matrix", "mesh2d-s", "--machine", "laptop4",
                     "--no-threaded", "--out", str(tmp_path / "o")])
    assert rc == 0


def test_records_identical_with_and_without_observability():
    """The enabled path must not perturb any deterministic record field.

    (The dormant path's byte-for-byte stability across runs is gated by
    ``benchmarks/smoke_observability.py``.)
    """
    from repro.observability.state import observed
    from repro.suite.harness import Harness
    from repro.suite.matrices import small_suite
    from repro.suite.storage import record_to_blob

    spec = min(small_suite(), key=lambda s: s.build().n_rows)

    def run():
        harness = Harness(machines=["laptop4"], kernels=["sptrsv"])
        return harness.run_suite([spec])

    plain = run()
    with observed() as (tracer, registry):
        traced = run()
    assert len(tracer.spans) > 0  # the instrumentation actually fired
    assert registry.counter("inspector.runs.hdagg").value >= 1

    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        blob_a = {k: v for k, v in record_to_blob(a).items()
                  if k not in _TIMING_FIELDS}
        blob_b = {k: v for k, v in record_to_blob(b).items()
                  if k not in _TIMING_FIELDS}
        assert blob_a == blob_b
