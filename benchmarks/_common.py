"""Helpers shared by the benchmark modules (kept out of conftest so the
module name never collides with the test-suite conftest)."""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.perflab.fingerprint import PERF_SCHEMA_VERSION, collect_fingerprint
from repro.suite import SUITE, suite_by_name

#: Representative subset: every family, both size buckets, both AP buckets.
SUBSET = [
    "mesh2d-s",
    "mesh2d-xl",
    "mesh3d-m",
    "mesh3d-xl",
    "band-narrow",
    "rand-mid",
    "rand-large",
    "chain-pure",
    "blocks-many",
    "power-soft",
    "kite-small",
    "arrow-many",
]

#: Where regenerated tables/figures land; ``HDAGG_BENCH_OUT`` redirects the
#: whole artifact tree (CI points it at the uploaded-artifact directory).
OUTPUT_DIR = Path(os.environ.get("HDAGG_BENCH_OUT") or Path(__file__).parent / "output")


def bench_specs():
    """Dataset for the bench session: 12-matrix subset, or all 34 with
    ``HDAGG_BENCH_FULL=1``."""
    if os.environ.get("HDAGG_BENCH_FULL"):
        return list(SUITE)
    by_name = suite_by_name()
    return [by_name[n] for n in SUBSET]


def provenance_footer() -> str:
    """Environment stamp appended to every text artifact: which machine,
    which commit, which schema — so a diff between two committed outputs
    is attributable before anyone re-runs anything."""
    fp = collect_fingerprint()
    return (
        f"# schema {PERF_SCHEMA_VERSION} | env {fp.digest} ({fp.describe()})"
        + (f" | git {fp.git_sha}" if fp.git_sha else "")
    )


def write_report(output_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated table/figure under the output tree."""
    (output_dir / f"{name}.txt").write_text(
        text + "\n" + provenance_footer() + "\n", encoding="utf-8"
    )


def write_json_payload(output_dir: Path, name: str, payload: dict) -> Path:
    """Persist a machine-readable artifact, stamped with the perf schema
    version and the environment fingerprint (digest + full description).

    The stamp lives at the top level next to the payload keys, so a reader
    can route on ``schema`` and recover the provenance without any side
    files.
    """
    fp = collect_fingerprint()
    doc = {
        "schema": PERF_SCHEMA_VERSION,
        "fingerprint": fp.as_dict(),
        **payload,
    }
    path = output_dir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
