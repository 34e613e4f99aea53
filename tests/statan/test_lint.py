"""Lint engine: every L-rule fires on its seeded fixture, the repo is clean,
suppression and baseline plumbing behave, and the CLI exit codes hold.
"""

import dataclasses
import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.statan import ALL_RULES, run_lint
from repro.statan.cli import lint_main
from repro.statan.engine import suppressed_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(text))
    return path


def _rule(rule_id):
    return next(r for r in ALL_RULES if r.id == rule_id)


def _findings(root, rel, rule_id):
    return [d for d in run_lint(root, paths=[rel]) if d.rule == rule_id]


# ----------------------------------------------------------------------
# the repo itself gates clean
# ----------------------------------------------------------------------
def test_repo_lints_clean():
    assert run_lint(REPO_ROOT) == []


# ----------------------------------------------------------------------
# one seeded fixture per AST rule
# ----------------------------------------------------------------------
def test_l001_unregistered_fault_site(tmp_path):
    rel = "src/repro/core/bad_fault.py"
    _write(tmp_path, rel, """\
        from repro.resilience.faults import fault_point


        def trip(site):
            fault_point("totally.unregistered")
            fault_point(site)
    """)
    found = _findings(tmp_path, rel, "L001")
    assert len(found) == 2
    assert "'totally.unregistered' is not registered" in found[0].message
    assert "string literal" in found[1].message
    assert found[0].hint and "FAULT_SITES" in found[0].hint


def test_l001_registered_site_is_clean(tmp_path):
    rel = "src/repro/core/ok_fault.py"
    _write(tmp_path, rel, """\
        from repro.resilience.faults import fault_point


        def trip():
            fault_point("inspector.stage", label="lbp")
    """)
    assert _findings(tmp_path, rel, "L001") == []


def test_l003_unguarded_observability_state(tmp_path):
    rel = "src/repro/core/bad_obs.py"
    _write(tmp_path, rel, """\
        from repro.observability.state import STATE


        def traced(x):
            with STATE.tracer.span("x"):
                return x


        def traced_guarded(x):
            if not STATE.enabled:
                return x
            with STATE.tracer.span("x"):
                return x


        def traced_inline(x):
            if STATE.enabled:
                STATE.registry.counter("calls").inc()
            return x
    """)
    found = _findings(tmp_path, rel, "L003")
    assert len(found) == 1
    assert "STATE.tracer used without an .enabled guard" in found[0].message
    assert found[0].line == 5


def test_l004_float_reduction_over_set(tmp_path):
    rel = "src/repro/core/bad_sum.py"
    _write(tmp_path, rel, """\
        import math


        def total(xs):
            return sum({float(x) for x in xs})


        def total_gen(xs):
            return math.fsum(float(x) for x in set(xs))


        def total_ok(xs):
            return sum(sorted(xs))
    """)
    found = _findings(tmp_path, rel, "L004")
    assert len(found) == 2
    assert "unordered container" in found[0].message


def test_l005_wall_clock_and_unseeded_rng(tmp_path):
    rel = "src/repro/core/bad_rng.py"
    _write(tmp_path, rel, """\
        import time

        import numpy as np


        def stamp():
            return time.time()


        def shuffle(a):
            np.random.shuffle(a)
            return np.random.default_rng()


        def ok():
            t = time.perf_counter()
            return t, np.random.default_rng(0)
    """)
    found = _findings(tmp_path, rel, "L005")
    assert [d.message for d in found] == [
        "time.time() wall clock in inspector code",
        "global numpy RNG call np.random.shuffle()",
        "default_rng() without an explicit seed",
    ]


def test_l007_pass_input_mutation(tmp_path):
    rel = "src/repro/passes/bad_mutate.py"
    _write(tmp_path, rel, """\
        def run(ctx):
            g = ctx["DAG"]
            g.n = 0
            ctx["Cost"][0] = 1.0
            cost = ctx.get("Cost")
            cost[1] += 2.0
            fresh = list(ctx["Cost"])
            fresh[0] = 0.0
            return {"Schedule": g}
    """)
    found = _findings(tmp_path, rel, "L007")
    assert [d.line for d in found] == [3, 4, 6]
    assert all("artifact read from the pass context" in d.message for d in found)


def test_l008_suppression_hygiene(tmp_path):
    rel = "src/repro/core/bad_suppress.py"
    _write(tmp_path, rel, """\
        X = 1  # statan: ignore
        Y = 2  # statan: ignore[L999]
    """)
    found = _findings(tmp_path, rel, "L008")
    assert [d.line for d in found] == [1, 2]
    assert "blanket" in found[0].message
    assert "unknown rule 'L999'" in found[1].message


def test_l009_undeclared_metric_names(tmp_path):
    rel = "src/repro/core/bad_metrics.py"
    _write(tmp_path, rel, """\
        from repro.observability.state import STATE


        def emit(reg, label):
            if STATE.enabled and STATE.registry is not None:
                STATE.registry.counter("totally.undeclared").inc()
            reg.gauge(f"{label}.depth").set(1)
            reg.counter(f"inspector.runs.{label}").inc()
            reg.counter("store.hits").inc()
            reg.counter("schedule_cache.hits").inc()
            reg.counter(label).inc()
    """)
    found = _findings(tmp_path, rel, "L009")
    assert len(found) == 2
    assert "'totally.undeclared' is not declared" in found[0].message
    assert "family prefix" in found[1].message
    assert found[0].hint and "metric_catalog" in found[0].hint


# ----------------------------------------------------------------------
# project rules fire when the live registries drift (simulated)
# ----------------------------------------------------------------------
def test_l006_fires_when_runrecord_schema_drifts(monkeypatch):
    import repro.suite.harness as harness_mod

    @dataclasses.dataclass
    class FakeRecord:
        matrix: str
        surprise: int  # new required field: an API break for stored blobs

    monkeypatch.setattr(harness_mod, "RunRecord", FakeRecord)
    found = [d for d in _rule("L006").check_project(REPO_ROOT)]
    messages = "\n".join(d.message for d in found)
    assert "new RunRecord field 'surprise' has no default" in messages
    assert "pinned RunRecord field 'kernel' was removed or defaulted" in messages


def test_runrecord_pin_matches_the_live_dataclass():
    from repro.statan import RUNRECORD_REQUIRED_FIELDS
    from repro.suite.harness import RunRecord

    required = tuple(
        f.name
        for f in dataclasses.fields(RunRecord)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    assert required == RUNRECORD_REQUIRED_FIELDS


# ----------------------------------------------------------------------
# suppression and engine plumbing
# ----------------------------------------------------------------------
def test_inline_suppression_silences_exactly_that_rule(tmp_path):
    rel = "src/repro/core/suppressed.py"
    _write(tmp_path, rel, """\
        from repro.resilience.faults import fault_point


        def trip():
            fault_point("nope")  # statan: ignore[L001]
    """)
    assert run_lint(tmp_path, paths=[rel]) == []


def test_suppression_for_a_different_rule_does_not_apply(tmp_path):
    rel = "src/repro/core/missuppressed.py"
    _write(tmp_path, rel, """\
        from repro.resilience.faults import fault_point


        def trip():
            fault_point("nope")  # statan: ignore[L004]
    """)
    rules = {d.rule for d in run_lint(tmp_path, paths=[rel])}
    assert rules == {"L001"}


def test_suppressed_rules_parser():
    assert suppressed_rules("x = 1") is None
    assert suppressed_rules("x = 1  # statan: ignore[L001]") == {"L001"}
    assert suppressed_rules("x = 1  # statan: ignore[L001, L004]") == {"L001", "L004"}
    assert suppressed_rules("x = 1  # statan: ignore[]") == set()


def test_syntax_error_becomes_a_structured_finding(tmp_path):
    rel = "src/repro/core/broken.py"
    _write(tmp_path, rel, "def broken(:\n")
    found = run_lint(tmp_path, paths=[rel])
    assert [d.rule for d in found] == ["E000"]
    assert found[0].path == rel


def test_unknown_rule_ids_raise():
    with pytest.raises(ValueError, match="unknown rule ids"):
        run_lint(REPO_ROOT, rule_ids=["L001", "BOGUS"])


# ----------------------------------------------------------------------
# CLI: exit codes, formats, baseline
# ----------------------------------------------------------------------
def _seed_violation(tmp_path):
    _write(tmp_path, "src/repro/core/bad_sum.py", """\
        def total(xs):
            return sum({float(x) for x in xs})
    """)


def test_cli_is_clean_on_the_repo(capsys):
    assert lint_main(["--root", str(REPO_ROOT), "--strict"]) == 0
    assert "statan: clean" in capsys.readouterr().out


def test_cli_fails_on_a_seeded_fixture(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert lint_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "L004" in out and "bad_sum.py" in out


def test_cli_rule_subset_and_usage_errors(tmp_path):
    _seed_violation(tmp_path)
    assert lint_main(["--root", str(tmp_path), "--rules", "L004"]) == 1
    assert lint_main(["--root", str(tmp_path), "--rules", "L003"]) == 0
    assert lint_main(["--root", str(tmp_path), "--rules", "BOGUS"]) == 2
    assert lint_main(["--root", str(tmp_path / "does-not-exist")]) == 2


def test_cli_json_format_is_machine_readable(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert lint_main(["--root", str(tmp_path), "--format", "json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["errors"] == 1 and blob["warnings"] == 0
    assert [d["rule"] for d in blob["diagnostics"]] == ["L004"]
    assert blob["diagnostics"][0]["path"] == "src/repro/core/bad_sum.py"


def test_cli_baseline_grandfathers_existing_findings(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
    assert (tmp_path / "statan-baseline.json").exists()
    capsys.readouterr()
    # the recorded finding is suppressed on the next run ...
    assert lint_main(["--root", str(tmp_path)]) == 0
    # ... but a new violation still fails
    _write(tmp_path, "src/repro/core/bad_rng.py", """\
        import time


        def stamp():
            return time.time()
    """)
    assert lint_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "L005" in out and "L004" not in out


def test_baseline_fingerprints_survive_line_moves(tmp_path):
    _seed_violation(tmp_path)
    assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
    # push the violation down two lines; the fingerprint must still match
    path = tmp_path / "src/repro/core/bad_sum.py"
    path.write_text("# moved\n# moved again\n" + path.read_text())
    assert lint_main(["--root", str(tmp_path)]) == 0
