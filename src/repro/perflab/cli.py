"""``hdagg-bench perf``: judge two commits' ``bench/run.py`` results.

One subcommand::

    perf compare PARENT_DIR CHANGE_DIR

Each directory holds repeated ``bench/run.py`` results (one
``results.json`` per run, at any depth), one directory per commit.  See
:mod:`repro.perflab.compare` for the pairing, the verdict rule and the
exit codes.

Example (one pair; a gain needs at least ten)::

    python3 bench/run.py --workload cold-solve --seed 0 --out perf-out/parent/0
    python3 bench/run.py --workload cold-solve --seed 0 --out perf-out/change/0
    hdagg-bench perf compare perf-out/parent perf-out/change
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .compare import perf_compare

__all__ = ["perf_main", "build_perf_parser"]


def build_perf_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hdagg-bench perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)
    cmp_ = sub.add_parser("compare", help="judge a change's bench results against its parent's")
    cmp_.add_argument("parent_dir", help="results of the parent commit")
    cmp_.add_argument("change_dir", help="results of the change")
    return p


def perf_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``hdagg-bench perf``; returns :func:`perf_compare`'s exit code."""
    args = build_perf_parser().parse_args(argv)
    return perf_compare(args.parent_dir, args.change_dir)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(perf_main())
