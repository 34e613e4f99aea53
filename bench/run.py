"""End-to-end benchmark of the HDagg reproduction; see bench/README.md.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]

Runs each selected workload (default: all, in BENCHMARK.json order), one at a
time, in its own fresh child process (bench/worker.py) pinned to one thread
with no backend or switch overrides.  A run does a fixed amount of work, which
takes about ``run_seconds`` of BENCHMARK.json on the reference host;
``--seconds`` may only restate that value, so runs of different lengths are
never compared.  Untraced, it reports the end-to-end metrics of
BENCHMARK.json, among them ``setup_s``: the median time of five fresh
interpreters started to ready, in CPU time on the reference host (see
bench/calibrate.py).  Traced, it reports the per-layer metrics and
writes ``<out>/<workload>.spans.jsonl``.  It prints one
``<workload> <metric> <value> <unit>`` line per metric, writes
``<out>/results.json``, and ends with one JSON line.  When the program cannot
be run from this checkout it exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import reading, slowdowns

ROOT = Path(__file__).resolve().parents[1]
SETUP_STARTS = 5
#: Wall seconds one start-to-ready, and one measured run, may take.
SETUP_TIMEOUT = 30
RUN_TIMEOUT = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env() -> dict:
    """The child environment: this checkout's program, one thread, no overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def children_cpu_s() -> float:
    """CPU seconds used so far by this process's finished children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def worker(args: list, timeout: float) -> str:
    """Run bench/worker.py to completion; its stdout, or BenchError."""
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), *args],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def run_workload(name: str, seed: int, trace: bool, out: Path) -> dict:
    result: dict = {}
    if not trace:
        readings, starts = [], []
        for _ in range(SETUP_STARTS):
            readings.append(reading())
            t0 = children_cpu_s()
            worker([name, "--ready"], SETUP_TIMEOUT)
            starts.append(children_cpu_s() - t0)
        readings.append(reading())
        result["setup_starts_s"] = [s / f for s, f in zip(starts, slowdowns(readings))]
    t0 = time.perf_counter()
    stdout = worker(
        [name, "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)],
        RUN_TIMEOUT,
    )
    result["run_wall_s"] = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {name} printed no result")
    result.update(json.loads(lines[-1]))
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(result["setup_starts_s"])
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    args = ap.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        ap.error(f"the run length is fixed: --seconds must be {spec['run_seconds']}")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            result = run_workload(name, args.seed, bool(args.trace), out)
            undeclared = sorted(set(result["metrics"]) - set(units))
            missing = sorted({m["name"] for m in declared} - set(result["metrics"]))
            if undeclared or missing:
                raise BenchError(f"{name}: undeclared {undeclared}, missing {missing}")
            result["metrics"] = {
                m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()
            }
            results[name] = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    (out / "results.json").write_text(
        json.dumps({"seed": args.seed, "trace": args.trace, "workloads": results}, indent=1) + "\n",
        encoding="utf-8",
    )
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        for layer, n in sorted(result["failures"].items()):
            print(f"{name} failures.{layer} {n} ops", file=sys.stderr)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        for m in declared:
            summary["metrics"][prefix + m["name"]] = result["metrics"][m["name"]]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
