"""Judge repeated ``bench/run.py`` results of two commits.

``hdagg-bench perf compare PARENT_DIR CHANGE_DIR`` reads every
``results.json`` under each directory (recursively, in sorted path order)
and pairs the i-th parent run with the i-th change run.  Runs that cannot
be compared — different run counts, a pair differing in ``seed``,
``trace``, workload set or a workload's ``input_digest``, or more than one
``stamp.fingerprint_digest`` among all runs — exit 2 with the mismatch
named.

There is one verdict rule: ``bench/README.md``'s "Comparing two commits".
For every workload and end-to-end metric of the repo-root
``BENCHMARK.json`` (which gives ``better`` and ``bound``), with the
quartiles of ``statistics.quantiles(v, n=4)`` and ties counting for
neither side, the lane is

* ``gain`` — at least 10 pairs, the change wins at least 9 in 10 of them,
  and the medians differ by more than the parent's IQR;
* ``regressed`` — the change median is worse than the parent median by
  more than ``bound`` × the parent median, and either the parent IQR is no
  wider than that or every change run is worse than every parent run;
* ``unresolved`` — the parent IQR is wider than that, and not every change
  run is better than every parent run;
* ``flat`` — none of the above.

The deterministic outcome metrics (:data:`EXACT_METRICS`) must be equal
pair by pair (``equal``), else ``changed``; a higher failed/attempted
share on the change side is ``regressed``.  When the runs are traced, the
timed lanes give way to a per-layer table: the median ledger ``self_s`` of
each side, sorted by |Δ|.

The command prints a markdown table, then one JSON line (``pairs``,
``rows``).  It exits 0 when nothing regressed, 1 on any ``regressed`` or
``changed`` lane, and 2 when the inputs cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

__all__ = [
    "BENCHMARK_JSON",
    "EXACT_METRICS",
    "CompareError",
    "load_runs",
    "check_pairs",
    "timed_lane",
    "compare_runs",
    "layer_table",
    "perf_compare",
]

#: The benchmark contract at the repo root: metric names, ``better`` and ``bound``.
BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"

#: Outcome metrics the benchmark computes deterministically.
EXACT_METRICS = ("model_speedup.gmean", "model_vs_best.gmean", "solver_iters.mean")

#: A gain needs at least this many pairs.
MIN_GAIN_PAIRS = 10

Run = Tuple[Path, dict]


class CompareError(ValueError):
    """The two sides cannot be compared."""


def load_runs(directory) -> List[Run]:
    """Every ``results.json`` under ``directory``, in sorted path order."""
    runs = []
    for path in sorted(Path(directory).rglob("results.json")):
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CompareError(f"cannot read {path}: {exc}") from exc
        if not isinstance(blob, dict) or not {"seed", "trace", "workloads"} <= blob.keys():
            raise CompareError(f"{path} is not a bench/run.py results.json")
        runs.append((path, blob))
    if not runs:
        raise CompareError(f"no results.json under {directory}")
    return runs


def check_pairs(parent: Sequence[Run], change: Sequence[Run]) -> None:
    """Raise :class:`CompareError` naming the first reason the runs cannot pair."""
    if len(parent) != len(change):
        raise CompareError(
            f"run count differs: {len(parent)} parent runs, {len(change)} change runs"
        )
    for (ppath, p), (cpath, c) in zip(parent, change):
        for field in ("seed", "trace"):
            if p[field] != c[field]:
                raise CompareError(
                    f"{field} differs: {p[field]!r} in {ppath}, {c[field]!r} in {cpath}"
                )
        if set(p["workloads"]) != set(c["workloads"]):
            raise CompareError(
                f"workload set differs: {sorted(p['workloads'])} in {ppath}, "
                f"{sorted(c['workloads'])} in {cpath}"
            )
        for name, w in p["workloads"].items():
            a, b = w.get("input_digest"), c["workloads"][name].get("input_digest")
            if a != b:
                raise CompareError(
                    f"{name} input_digest differs: {a!r} in {ppath}, {b!r} in {cpath}"
                )
    if len({bool(blob["trace"]) for _, blob in parent}) > 1:
        raise CompareError("the runs mix traced and untraced results")
    digests: Dict[str, Path] = {}
    for path, blob in [*parent, *change]:
        for w in blob["workloads"].values():
            digests.setdefault(w.get("stamp", {}).get("fingerprint_digest"), path)
    if len(digests) > 1:
        raise CompareError(
            "fingerprint_digest differs: "
            + ", ".join(f"{d!r} in {path}" for d, path in digests.items())
        )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_lane(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int]:
    """The lane of one timed metric, and the number of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    # in these units lower is better for every metric
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    wins = sum(cv < pv for pv, cv in zip(p, c))
    q1, med_p, q3 = quartiles(parent)
    iqr = q3 - q1
    allowed = bound * abs(med_p)
    shift = statistics.median(c) - statistics.median(p)  # > 0: the change is worse
    if len(p) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(p) and -shift > iqr:
        return "gain", wins
    if shift > allowed and (iqr <= allowed or min(c) > max(p)):
        return "regressed", wins
    if iqr > allowed and not max(c) < min(p):
        return "unresolved", wins
    return "flat", wins


def _metric_values(runs: Sequence[Run], workload: str, metric: str) -> List[Optional[float]]:
    return [
        blob["workloads"][workload]["metrics"].get(metric, {}).get("value")
        for _, blob in runs
    ]


def _fail_share(runs: Sequence[Run], workload: str) -> float:
    attempted = sum(blob["workloads"][workload]["attempted"] for _, blob in runs)
    failed = sum(blob["workloads"][workload]["failed"] for _, blob in runs)
    return failed / attempted if attempted else 0.0


def compare_runs(
    parent: Sequence[Run], change: Sequence[Run], end_to_end: Sequence[dict]
) -> List[dict]:
    """One row per workload and judged metric, each with its ``lane``.

    ``end_to_end`` is the ``end_to_end`` list of ``BENCHMARK.json``.  A
    timed row holds each side's ``[q1, median, q3]`` and ``wins``, the pairs
    the change won; an exact row holds each side's value per run; the
    ``fail_rate`` row holds each side's failed/attempted share.  Traced runs
    carry no timed metrics.
    """
    rows: List[dict] = []
    for workload in parent[0][1]["workloads"]:
        present = parent[0][1]["workloads"][workload]["metrics"]
        for m in end_to_end:
            if m["name"] not in present:
                continue
            p = _metric_values(parent, workload, m["name"])
            c = _metric_values(change, workload, m["name"])
            if None in p + c:
                raise CompareError(f"{workload} {m['name']} is missing from some runs")
            lane, wins = timed_lane(p, c, m["better"], m["bound"])
            rows.append({"workload": workload, "metric": m["name"], "lane": lane,
                         "parent": list(quartiles(p)), "change": list(quartiles(c)),
                         "wins": wins})
        for metric in EXACT_METRICS:
            if metric not in present:
                continue
            p = _metric_values(parent, workload, metric)
            c = _metric_values(change, workload, metric)
            rows.append({"workload": workload, "metric": metric,
                         "lane": "equal" if p == c else "changed",
                         "parent": p, "change": c})
        p_fail, c_fail = _fail_share(parent, workload), _fail_share(change, workload)
        rows.append({"workload": workload, "metric": "fail_rate",
                     "lane": "regressed" if c_fail > p_fail else "flat",
                     "parent": p_fail, "change": c_fail})
    return rows


def layer_table(
    parent: Sequence[Run], change: Sequence[Run], workload: str
) -> List[Tuple[str, float, float]]:
    """``(layer, parent s, change s)``: median ledger ``self_s``, by |Δ| descending."""

    def medians(runs: Sequence[Run]) -> Dict[str, float]:
        ledgers = [blob["workloads"][workload].get("ledger", {}) for _, blob in runs]
        layers = {name for ledger in ledgers for name in ledger}
        return {
            name: statistics.median(ledger.get(name, {}).get("self_s", 0.0) for ledger in ledgers)
            for name in layers
        }

    p, c = medians(parent), medians(change)
    table = [(name, p.get(name, 0.0), c.get(name, 0.0)) for name in p.keys() | c.keys()]
    return sorted(table, key=lambda r: (-abs(r[2] - r[1]), r[0]))


def _fmt(value) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.6g}"
    return "missing" if value is None else str(value)


def _side(row: dict, side: str) -> str:
    v = row[side]
    if "wins" in row:  # timed: [q1, median, q3]
        return f"{_fmt(v[1])} [{_fmt(v[0])}, {_fmt(v[2])}]"
    if isinstance(v, list):  # exact: one value per run
        return _fmt(v[0]) if all(x == v[0] for x in v) else ", ".join(map(_fmt, v))
    return _fmt(v)


def _markdown(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    return ["| " + " | ".join(headers) + " |",
            "|" + "---|" * len(headers),
            *("| " + " | ".join(r) + " |" for r in rows)]


def perf_compare(parent_dir, change_dir, out: Optional[TextIO] = None) -> int:
    """Print the comparison of two result directories (to ``out``, default
    stdout); return the exit code."""
    try:
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        parent, change = load_runs(parent_dir), load_runs(change_dir)
        check_pairs(parent, change)
        rows = compare_runs(parent, change, spec["end_to_end"])
    except (CompareError, OSError) as exc:
        print(f"perf compare: {exc}", file=sys.stderr)
        return 2
    pairs = len(parent)
    lines = [f"# perf compare: {pairs} pair{'s' * (pairs != 1)}, "
             f"parent {parent_dir} vs change {change_dir}", ""]
    lines += _markdown(
        ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
         "change wins", "lane"],
        [[r["workload"], r["metric"], _side(r, "parent"), _side(r, "change"),
          f"{r['wins']}/{pairs}" if "wins" in r else "", r["lane"]] for r in rows],
    )
    if parent[0][1]["trace"]:
        for workload in parent[0][1]["workloads"]:
            lines += ["", f"## {workload}: median ledger self_s over {pairs} "
                          f"run{'s' * (pairs != 1)}, by |Δ|", ""]
            lines += _markdown(
                ["layer", "parent s", "change s", "Δ s"],
                [[name, f"{p:.4f}", f"{c:.4f}", f"{c - p:+.4f}"]
                 for name, p, c in layer_table(parent, change, workload)],
            )
    print("\n".join(lines), file=out)
    print(json.dumps({"pairs": pairs, "rows": rows}), file=out)
    return 1 if any(r["lane"] in ("regressed", "changed") for r in rows) else 0
