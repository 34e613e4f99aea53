"""``perf compare``: pairing, the verdict lanes and the exit codes."""

import io
import json
from pathlib import Path

import pytest

from repro.perflab.compare import layer_table, load_runs, perf_compare
from repro.suite.cli import main as hdagg_bench

FIXTURE = Path(__file__).parent / "paper_grid_results"
DIGEST = "0123456789ab"
TIMED = {"setup_s": 0.6, "op_s.p50": 0.03, "op_s.p90": 0.05,
         "ops_per_s": 30.0, "peak_rss_mb": 150.0}


def run(metrics=None, *, workload="cold-solve", seed=0, trace=0, digest=DIGEST,
        input_digest=None, attempted=100, failed=0, ledger=None):
    """One synthetic ``bench/run.py`` results.json with one workload."""
    values = {} if trace else dict(TIMED)
    values.update(metrics or {})
    w = {
        "input_digest": input_digest or f"{workload}-{seed}",
        "attempted": attempted,
        "failed": failed,
        "stamp": {"fingerprint_digest": digest},
        "metrics": {m: {"value": v, "unit": ""} for m, v in values.items()},
    }
    if ledger is not None:
        w["ledger"] = {name: {"self_s": s} for name, s in ledger.items()}
    return {"seed": seed, "trace": trace, "workloads": {workload: w}}


def write(root, runs):
    for i, blob in enumerate(runs):
        d = root / f"{i:02d}"
        d.mkdir(parents=True)
        (d / "results.json").write_text(json.dumps(blob))
    return root


def judge(tmp_path, parent, change):
    """Exit code, rows by metric, and the printed text."""
    out = io.StringIO()
    code = perf_compare(write(tmp_path / "parent", parent),
                        write(tmp_path / "change", change), out=out)
    text = out.getvalue()
    verdict = json.loads(text.strip().splitlines()[-1]) if code != 2 else None
    rows = {r["metric"]: r for r in verdict["rows"]} if verdict else {}
    return code, rows, text


def p50_pairs(parent, change, metric="op_s.p50"):
    return ([run({metric: v}, seed=i) for i, v in enumerate(parent)],
            [run({metric: v}, seed=i) for i, v in enumerate(change)])


TIGHT = [0.030 + 0.0001 * i for i in range(10)]


@pytest.mark.parametrize("wins,lane", [(9, "gain"), (8, "flat")])
def test_gain_needs_nine_wins_in_ten(tmp_path, wins, lane):
    change = [v * 0.8 if i < wins else v * 1.05 for i, v in enumerate(TIGHT)]
    code, rows, _ = judge(tmp_path, *p50_pairs(TIGHT, change))
    assert rows["op_s.p50"]["wins"] == wins
    assert rows["op_s.p50"]["lane"] == lane
    assert rows["op_s.p90"]["lane"] == "flat"  # ties count for neither side
    assert rows["op_s.p90"]["wins"] == 0
    assert code == 0


def test_gain_needs_ten_pairs(tmp_path):
    code, rows, _ = judge(tmp_path, *p50_pairs(TIGHT[:9], [v * 0.8 for v in TIGHT[:9]]))
    assert rows["op_s.p50"]["wins"] == 9
    assert rows["op_s.p50"]["lane"] == "flat"


def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(tmp_path):
    code, rows, _ = judge(tmp_path, *p50_pairs(TIGHT, [v - 0.0001 for v in TIGHT]))
    assert rows["op_s.p50"]["wins"] == 10
    assert rows["op_s.p50"]["lane"] == "flat"


def test_ops_per_s_is_higher_is_better(tmp_path):
    parent = [30.0 + 0.1 * i for i in range(10)]
    code, rows, _ = judge(tmp_path, *p50_pairs(parent, [v * 1.25 for v in parent], "ops_per_s"))
    assert rows["ops_per_s"]["lane"] == "gain"
    assert code == 0
    code, rows, _ = judge(tmp_path / "slower", *p50_pairs(parent, [v * 0.8 for v in parent],
                                                           "ops_per_s"))
    assert rows["ops_per_s"]["lane"] == "regressed"
    assert rows["ops_per_s"]["wins"] == 0
    assert code == 1


WIDE = [0.02, 0.03, 0.04]


def test_wide_parent_iqr_is_unresolved(tmp_path):
    code, rows, _ = judge(tmp_path, *p50_pairs(WIDE, [v + 0.001 for v in WIDE]))
    assert rows["op_s.p50"]["lane"] == "unresolved"
    assert code == 0


def test_wide_parent_iqr_is_resolved_when_every_change_run_is_better(tmp_path):
    code, rows, _ = judge(tmp_path, *p50_pairs(WIDE, [0.015, 0.016, 0.019]))
    assert rows["op_s.p50"]["lane"] == "flat"


def test_wide_parent_iqr_still_regresses_when_every_change_run_is_worse(tmp_path):
    code, rows, _ = judge(tmp_path, *p50_pairs(WIDE, [0.045, 0.05, 0.06]))
    assert rows["op_s.p50"]["lane"] == "regressed"
    assert code == 1


def test_tight_iqr_slowdown_beyond_the_bound_regresses(tmp_path):
    parent = [0.0300, 0.0301, 0.0299]
    code, rows, text = judge(tmp_path, *p50_pairs(parent, [v * 1.2 for v in parent]))
    assert rows["op_s.p50"]["lane"] == "regressed"
    assert "| cold-solve | op_s.p50 |" in text
    assert code == 1
    # inside the 0.10 bound it is flat
    code, rows, _ = judge(tmp_path / "small", *p50_pairs(parent, [v * 1.05 for v in parent]))
    assert rows["op_s.p50"]["lane"] == "flat"
    assert code == 0


def test_deterministic_metric_must_match_exactly(tmp_path):
    parent = [run({"model_speedup.gmean": 9.649457}, workload="paper-grid")]
    change = [run({"model_speedup.gmean": 9.649458}, workload="paper-grid")]
    code, rows, _ = judge(tmp_path, parent, change)
    assert rows["model_speedup.gmean"]["lane"] == "changed"
    assert code == 1
    code, rows, _ = judge(tmp_path / "same", parent, parent)
    assert rows["model_speedup.gmean"]["lane"] == "equal"
    assert code == 0


def test_more_failed_ops_regress(tmp_path):
    code, rows, _ = judge(tmp_path, [run(failed=0)], [run(failed=1)])
    assert rows["fail_rate"]["lane"] == "regressed"
    assert rows["fail_rate"]["change"] == pytest.approx(0.01)
    assert code == 1
    code, rows, _ = judge(tmp_path / "fewer", [run(failed=1)], [run(failed=0)])
    assert rows["fail_rate"]["lane"] == "flat"
    assert code == 0


@pytest.mark.parametrize("parent,change,named", [
    ([run()], [run(digest="ba9876543210")], "fingerprint_digest differs"),
    ([run()], [run(seed=1, input_digest="cold-solve-0")], "seed differs"),
    ([run()], [run(input_digest="other")], "cold-solve input_digest differs"),
    ([run(), run(seed=1)], [run()], "run count differs: 2 parent runs, 1 change runs"),
    ([run()], [run(workload="pcg-reuse")], "workload set differs"),
    ([run()], [run(trace=1)], "trace differs"),
])
def test_mismatched_runs_exit_2_naming_the_mismatch(tmp_path, capsys, parent, change, named):
    code, _, text = judge(tmp_path, parent, change)
    assert code == 2
    assert text == ""
    assert named in capsys.readouterr().err


def test_empty_side_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert perf_compare(FIXTURE, tmp_path / "empty", out=io.StringIO()) == 2
    assert "no results.json under" in capsys.readouterr().err


def test_traced_runs_rank_layers_by_self_time_moved(tmp_path):
    base = {"execute": 1.2, "inspect.hdagg": 0.8, "ordering": 0.2, "other": 0.02}
    grown = dict(base, ordering=0.5, execute=1.21)
    parent = [run({"fail_rate": 0.0}, trace=1, seed=i, ledger=base) for i in range(3)]
    change = [run({"fail_rate": 0.0}, trace=1, seed=i, ledger=grown) for i in range(3)]
    code, rows, text = judge(tmp_path, parent, change)
    assert code == 0
    assert "op_s.p50" not in rows  # no timed lanes on traced runs
    table = layer_table(load_runs(tmp_path / "parent"), load_runs(tmp_path / "change"),
                        "cold-solve")
    assert [name for name, _, _ in table][:2] == ["ordering", "execute"]
    assert table[0][1:] == (0.2, 0.5)
    assert "## cold-solve: median ledger self_s over 3 runs" in text
    assert text.index("| ordering |") < text.index("| execute |") < text.index("| other |")


def test_real_results_compared_with_themselves_are_flat(capsys):
    code = perf_compare(FIXTURE, FIXTURE)
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert verdict["pairs"] == 1
    lanes = {r["metric"]: r["lane"] for r in verdict["rows"]}
    assert {lanes[m] for m in TIMED} == {"flat"}
    assert lanes["model_speedup.gmean"] == lanes["model_vs_best.gmean"] == "equal"
    assert lanes["fail_rate"] == "flat"
    speedup = next(r for r in verdict["rows"] if r["metric"] == "model_speedup.gmean")
    assert speedup["parent"] == speedup["change"] == [pytest.approx(9.649457)]


def test_dispatch_via_hdagg_bench(capsys):
    assert hdagg_bench(["perf", "compare", str(FIXTURE), str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "| paper-grid | op_s.p50 |" in out
    assert json.loads(out.strip().splitlines()[-1])["pairs"] == 1
    with pytest.raises(SystemExit) as exc:
        hdagg_bench(["perf", "compare", str(FIXTURE)])
    assert exc.value.code == 2
