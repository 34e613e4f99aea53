"""One workload in a fresh interpreter; run.py starts it with a pinned environment.

    python3 bench/worker.py WORKLOAD [--seed N] [--trace 0|1] [--out DIR]
    python3 bench/worker.py WORKLOAD --ready

The first form measures the workload and prints one JSON object.  ``--ready``
imports the program, runs one operation of the workload on a tiny input and
exits; run.py times that start-to-ready as the set-up cost.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--ready", action="store_true")
    args = ap.parse_args(argv)

    import repro

    source = ROOT / "src"
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2

    from layers import Layers, stamp
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.ready:
        workload.warmup(Layers())
        return 0
    result = measure(workload, args.seed, bool(args.trace), args.out)
    result["stamp"] = stamp(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
