"""Perf-lab reports: markdown for humans-in-terminals, HTML for artifacts.

Both renderers consume the same inputs — a :class:`HistoryStore` plus the
per-series :class:`ObservationComparison` list the comparison engine
produced — and stay entirely self-contained: the HTML inlines its CSS and
draws the median trajectories as inline SVG sparklines, so a CI artifact
is one file that opens anywhere with no network access.
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence, Tuple

from .compare import ObservationComparison
from .fingerprint import PERF_SCHEMA_VERSION
from .history import HistoryStore
from .protocol import Observation

__all__ = ["markdown_report", "html_report", "sparkline"]


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1e3:.3f} ms"


def _series_rows(store: HistoryStore) -> List[Tuple[str, str, List[Observation]]]:
    return [
        (key.label(), digest, store.series(key, digest))
        for key, digest in store.series_keys()
    ]


def _verdict_for(label: str, comparisons: Sequence[ObservationComparison]):
    for c in comparisons:
        if c.label == label:
            return c
    return None


# ----------------------------------------------------------------------
def markdown_report(
    store: HistoryStore,
    comparisons: Sequence[ObservationComparison] = (),
    *,
    title: str = "Perf-lab report",
) -> str:
    lines = [f"# {title}", ""]
    fingerprints = store.fingerprints()
    lines.append(f"Schema {PERF_SCHEMA_VERSION}; {len(store)} observations, "
                 f"{len(fingerprints)} environment(s).")
    lines.append("")
    for digest, fp in sorted(fingerprints.items()):
        lines.append(f"- `{digest}`: {fp.describe()}")
    lines.append("")
    lines.append("| series | env | obs | latest median | 95% CI | reps | verdict |")
    lines.append("|---|---|---:|---:|---|---:|---|")
    for label, digest, seq in _series_rows(store):
        latest = seq[-1]
        st = latest.stats
        verdict = _verdict_for(label, comparisons)
        vtext = "-"
        if verdict is not None:
            t = verdict.total
            if t.verdict == "indeterminate":
                vtext = "indeterminate"
            else:
                mark = "**REGRESSED**" if verdict.regressed else t.verdict
                vtext = f"{mark} {t.rel_shift:+.1%}"
                if verdict.regressed and verdict.responsible_stages:
                    vtext += f" ({verdict.responsible_stages[0].stage})"
        lines.append(
            f"| {label} | `{digest}` | {len(seq)} | "
            f"{_fmt_s(st.statistic if st else None)} | "
            f"[{_fmt_s(st.lo if st else None)}, {_fmt_s(st.hi if st else None)}] | "
            f"{latest.reps}{'' if latest.converged else '*'} | {vtext} |"
        )
    lines.append("")
    lines.append("`*` = the adaptive protocol hit max_reps before its CI target.")
    stage_sections = [c for c in comparisons if c.stages]
    if stage_sections:
        lines.append("")
        lines.append("## Stage breakdown of compared series")
        for c in stage_sections:
            lines.append("")
            lines.append(f"### {c.label}")
            if c.change_point is not None:
                cp = c.change_point
                lines.append(
                    f"Change point at observation {cp.index}: "
                    f"{_fmt_s(cp.before_median)} -> {_fmt_s(cp.after_median)} "
                    f"({cp.rel_shift:+.1%}, p={cp.p_value:.3f})."
                )
            lines.append("")
            lines.append("| stage | shift | 95% shift CI | delta | verdict |")
            lines.append("|---|---:|---|---:|---|")
            for s in c.stages:
                v = s.verdict
                if v.verdict == "indeterminate":
                    lines.append(f"| {s.stage} | - | - | - | indeterminate |")
                    continue
                flag = v.verdict + (" (confirmed)" if v.confirmed else "")
                lines.append(
                    f"| {s.stage} | {v.rel_shift:+.1%} | "
                    f"[{v.shift_lo:+.1%}, {v.shift_hi:+.1%}] | "
                    f"{s.delta_seconds * 1e3:+.3f} ms | {flag} |"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a1a; padding: 0 1em; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: 1em 0; width: 100%; }
th, td { border: 1px solid #d0d0d0; padding: 0.35em 0.6em; text-align: left; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.regressed { color: #b30000; font-weight: 700; }
.improved { color: #006400; }
.unconfirmed { color: #8a6d00; }
.muted { color: #777; }
code { background: #f5f5f5; padding: 0 0.25em; }
svg.spark { vertical-align: middle; }
"""


def sparkline(values: Sequence[float], *, width: int = 140, height: int = 28) -> str:
    """Inline SVG polyline of a value trajectory (last point emphasised).

    Public so any other HTML report draws its series with the same
    self-contained SVG — one renderer for every report.
    """
    pts = [v for v in values if v is not None]
    if len(pts) < 2:
        return '<span class="muted">n/a</span>'
    lo, hi = min(pts), max(pts)
    span = (hi - lo) or 1.0
    pad = 3
    xs = [pad + i * (width - 2 * pad) / (len(pts) - 1) for i in range(len(pts))]
    ys = [height - pad - (v - lo) * (height - 2 * pad) / span for v in pts]
    poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{poly}" fill="none" stroke="#3465a4" stroke-width="1.5"/>'
        f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" fill="#b30000"/>'
        "</svg>"
    )


def html_report(
    store: HistoryStore,
    comparisons: Sequence[ObservationComparison] = (),
    *,
    title: str = "Perf-lab report",
) -> str:
    esc = html.escape
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        f"<p>Schema {PERF_SCHEMA_VERSION}; {len(store)} observations.</p>",
        "<h2>Environments</h2><ul>",
    ]
    for digest, fp in sorted(store.fingerprints().items()):
        parts.append(f"<li><code>{esc(digest)}</code>: {esc(fp.describe())}</li>")
    parts.append("</ul><h2>Series</h2>")
    parts.append(
        "<table><tr><th>series</th><th>env</th><th>obs</th><th>trajectory</th>"
        "<th>latest median</th><th>95% CI</th><th>reps</th><th>verdict</th></tr>"
    )
    for label, digest, seq in _series_rows(store):
        latest = seq[-1]
        st = latest.stats
        medians = [o.stats.statistic if o.stats else None for o in seq]
        verdict = _verdict_for(label, comparisons)
        if verdict is None:
            vcell = '<span class="muted">-</span>'
        else:
            t = verdict.total
            if t.verdict == "indeterminate":
                vcell = '<span class="muted">indeterminate</span>'
            elif verdict.regressed:
                stage = (
                    f" &middot; {esc(verdict.responsible_stages[0].stage)}"
                    if verdict.responsible_stages
                    else ""
                )
                vcell = (f'<span class="regressed">REGRESSED '
                         f"{t.rel_shift:+.1%}</span>{stage}")
            elif t.verdict == "improved" and t.confirmed:
                vcell = f'<span class="improved">improved {t.rel_shift:+.1%}</span>'
            elif t.verdict in ("regressed", "improved"):
                vcell = (f'<span class="unconfirmed">{t.verdict} '
                         f"{t.rel_shift:+.1%} (unconfirmed)</span>")
            else:
                vcell = f"unchanged {t.rel_shift:+.1%}"
        parts.append(
            f"<tr><td>{esc(label)}</td><td><code>{esc(digest)}</code></td>"
            f"<td class='num'>{len(seq)}</td><td>{sparkline(medians)}</td>"
            f"<td class='num'>{_fmt_s(st.statistic if st else None)}</td>"
            f"<td class='num'>[{_fmt_s(st.lo if st else None)}, "
            f"{_fmt_s(st.hi if st else None)}]</td>"
            f"<td class='num'>{latest.reps}{'' if latest.converged else '*'}</td>"
            f"<td>{vcell}</td></tr>"
        )
    parts.append("</table>")
    parts.append("<p class='muted'>* = adaptive protocol hit max_reps before "
                 "reaching its CI-width target.</p>")
    stage_sections = [c for c in comparisons if c.stages]
    if stage_sections:
        parts.append("<h2>Stage breakdown</h2>")
        for c in stage_sections:
            parts.append(f"<h3>{esc(c.label)}</h3>")
            if c.change_point is not None:
                cp = c.change_point
                parts.append(
                    f"<p>Change point at observation {cp.index}: "
                    f"{_fmt_s(cp.before_median)} &rarr; {_fmt_s(cp.after_median)} "
                    f"({cp.rel_shift:+.1%}, p={cp.p_value:.3f}).</p>"
                )
            parts.append(
                "<table><tr><th>stage</th><th>shift</th><th>95% shift CI</th>"
                "<th>delta</th><th>verdict</th></tr>"
            )
            for s in c.stages:
                v = s.verdict
                if v.verdict == "indeterminate":
                    parts.append(
                        f"<tr><td>{esc(s.stage)}</td><td colspan='3' "
                        f"class='muted'>-</td><td>indeterminate</td></tr>"
                    )
                    continue
                cls = (
                    "regressed" if (v.verdict == "regressed" and v.confirmed)
                    else "improved" if (v.verdict == "improved" and v.confirmed)
                    else "unconfirmed" if v.verdict in ("regressed", "improved")
                    else ""
                )
                flag = v.verdict + (" (confirmed)" if v.confirmed else "")
                parts.append(
                    f"<tr><td>{esc(s.stage)}</td>"
                    f"<td class='num'>{v.rel_shift:+.1%}</td>"
                    f"<td class='num'>[{v.shift_lo:+.1%}, {v.shift_hi:+.1%}]</td>"
                    f"<td class='num'>{s.delta_seconds * 1e3:+.3f} ms</td>"
                    f"<td class='{cls}'>{flag}</td></tr>"
                )
            parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)
