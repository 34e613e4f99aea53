"""A/B comparison of two harness runs — the development regression tool.

Calibration work on the model or changes to an inspector shift numbers
everywhere; this module diffs two record sets (e.g. saved before and after
a change with :mod:`repro.suite.storage`) and reports per-algorithm speedup
movement, flagged regressions, and the headline Table-I ratios side by
side.

Verdicts come from :func:`classify_point_ratio`: a cell whose baseline
speedup is non-positive or non-finite is ``indeterminate`` (``ratio`` is
``nan``), not an infinite "improvement" — those cells are counted and
listed separately so a broken baseline can never wave a regression
through.  This is the cheap single-point diff of modelled speedups; for a
verdict on measured time, run ``bench/run.py`` repeatedly on both commits
and judge the results with ``hdagg-bench perf compare``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .harness import RunRecord
from .tables import index_records

__all__ = ["RecordDelta", "classify_point_ratio", "diff_records", "regression_report"]


def classify_point_ratio(
    old: float,
    new: float,
    *,
    threshold: float = 0.95,
) -> str:
    """Single-point verdict for record diffs without samples.

    ``old``/``new`` are *higher-is-better* values (speedups).  Returns
    ``"regressed"``, ``"ok"``, or ``"indeterminate"`` — the latter for
    non-finite or non-positive baselines, which a bare ratio would turn
    into ``inf`` and silently wave through.
    """
    if not (math.isfinite(old) and math.isfinite(new)) or old <= 0 or new < 0:
        return "indeterminate"
    return "regressed" if (new / old) < threshold else "ok"


@dataclass(frozen=True)
class RecordDelta:
    """Speedup movement of one (matrix, kernel, algorithm, machine) cell."""

    key: tuple
    old_speedup: float
    new_speedup: float

    @property
    def ratio(self) -> float:
        """new/old, or ``nan`` when the baseline supports no ratio."""
        if self.indeterminate:
            return float("nan")
        return self.new_speedup / self.old_speedup

    @property
    def indeterminate(self) -> bool:
        """True when no verdict is possible (bad or non-finite baseline)."""
        return classify_point_ratio(self.old_speedup, self.new_speedup) == "indeterminate"

    @property
    def regressed(self) -> bool:
        """More than 5% slower counts as a regression."""
        return classify_point_ratio(self.old_speedup, self.new_speedup) == "regressed"


def diff_records(
    old: Sequence[RunRecord], new: Sequence[RunRecord]
) -> Tuple[List[RecordDelta], List[tuple], List[tuple]]:
    """Match cells by key; returns (deltas, only_in_old, only_in_new)."""
    old_idx = index_records(old)
    new_idx = index_records(new)
    deltas = [
        RecordDelta(key=k, old_speedup=old_idx[k].speedup, new_speedup=new_idx[k].speedup)
        for k in sorted(set(old_idx) & set(new_idx))
    ]
    return (
        deltas,
        sorted(set(old_idx) - set(new_idx)),
        sorted(set(new_idx) - set(old_idx)),
    )


def regression_report(
    old: Sequence[RunRecord], new: Sequence[RunRecord], *, threshold: float = 0.95
) -> str:
    """Human-readable diff: per-algorithm movement and flagged regressions."""
    deltas, gone, added = diff_records(old, new)
    lines = [f"record diff: {len(deltas)} matched cells"]
    if gone:
        lines.append(f"  cells only in OLD: {len(gone)} (e.g. {gone[0]})")
    if added:
        lines.append(f"  cells only in NEW: {len(added)} (e.g. {added[0]})")

    comparable = [d for d in deltas if not d.indeterminate]
    indeterminate = [d for d in deltas if d.indeterminate]
    by_algo: Dict[str, List[float]] = {}
    for d in comparable:
        by_algo.setdefault(d.key[2], []).append(d.ratio)
    for algo in sorted(by_algo):
        ratios = np.array(by_algo[algo])
        lines.append(
            f"  {algo:>10}: mean ratio {ratios.mean():.3f} "
            f"(min {ratios.min():.3f}, max {ratios.max():.3f})"
        )

    regressions = [d for d in comparable if d.ratio < threshold]
    if regressions:
        lines.append(f"  {len(regressions)} regression(s) below {threshold:.2f}x:")
        for d in sorted(regressions, key=lambda d: d.ratio)[:10]:
            lines.append(
                f"    {d.key}: {d.old_speedup:.2f} -> {d.new_speedup:.2f} "
                f"({d.ratio:.2f}x)"
            )
    else:
        lines.append(f"  no regressions below {threshold:.2f}x")
    if indeterminate:
        lines.append(
            f"  {len(indeterminate)} cell(s) indeterminate (non-positive or "
            f"non-finite baseline speedup):"
        )
        for d in indeterminate[:10]:
            lines.append(
                f"    {d.key}: {d.old_speedup:.2f} -> {d.new_speedup:.2f}"
            )
    return "\n".join(lines)
