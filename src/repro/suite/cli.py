"""``hdagg-bench``: command-line driver for the evaluation suite.

Examples::

    hdagg-bench --experiment table1 --machines intel20 amd64
    hdagg-bench --experiment fig5 --quick
    hdagg-bench --experiment all --kernels sptrsv --json results.json
    hdagg-bench --experiment table1 --quick --store /tmp/schedules
    hdagg-bench --list

``--quick`` restricts the dataset to one small matrix per family, which is
what CI and the test-suite smoke checks use.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from . import figures, tables
from .harness import Harness
from .matrices import SUITE, small_suite
from .reporting import dump_json, format_kv, format_table

__all__ = ["main", "build_parser", "run_experiment"]

EXPERIMENTS = ("table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8",
               "fig9", "dataset", "scaling")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hdagg-bench", description=__doc__)
    p.add_argument("--experiment", default="all", choices=EXPERIMENTS + ("all",))
    p.add_argument("--machines", nargs="+", default=["intel20"],
                   help="machine models (intel20, amd64, laptop4)")
    p.add_argument("--kernels", nargs="+", default=["sptrsv", "spic0", "spilu0"])
    p.add_argument("--quick", action="store_true", help="small per-family subset")
    p.add_argument("--matrices", nargs="+", default=None, help="restrict to named matrices")
    p.add_argument("--epsilon", type=float, default=None, help="HDagg/LBC balance threshold")
    p.add_argument("--ordering", default="nd", choices=["nd", "rcm", "natural", "random"])
    p.add_argument("--json", default=None, help="dump raw records + results to a JSON file")
    p.add_argument("--save-records", default=None, help="persist run records for later --load-records")
    p.add_argument("--load-records", default=None,
                   help="skip the grid run and regenerate experiments from saved records")
    p.add_argument("--jobs", type=int, default=1,
                   help="fork workers for the grid run (1 = serial)")
    p.add_argument("--journal", default=None,
                   help="JSONL checkpoint file; each finished matrix is flushed so a "
                        "killed run can be resumed with --resume")
    p.add_argument("--resume", action="store_true",
                   help="resume from an existing --journal file (replays finished "
                        "matrices verbatim, runs only the rest)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persistent schedule store: schedules inspected by an "
                        "earlier run are verified and reused (serial runs only)")
    p.add_argument("--faults", type=int, default=None, metavar="SEED",
                   help="arm a deterministic chaos FaultPlan with this seed "
                        "(failures are isolated into structured rows)")
    p.add_argument("--list", action="store_true", help="list the dataset and exit")
    return p


def _select_specs(args) -> List:
    specs = small_suite() if args.quick else list(SUITE)
    if args.matrices:
        by_name = {s.name: s for s in SUITE}
        specs = [by_name[m] for m in args.matrices]
    return specs


def run_experiment(records, name: str) -> str:
    """Format one experiment's output from precomputed records."""
    out: List[str] = []
    # table2/3 and the figures analyse one machine and one kernel; follow
    # the paper's defaults when present in the records, else fall back to
    # whatever was run (table1 aggregates across everything itself)
    machines = sorted({r.machine for r in records})
    machine = "intel20" if "intel20" in machines else (machines[0] if machines else "intel20")
    kernels = sorted({r.kernel for r in records})
    analysis_kernel = "spilu0" if "spilu0" in kernels else (kernels[0] if kernels else "spilu0")
    if name == "table1":
        h, rows, _ = tables.table1_speedups(records)
        out.append(format_table(h, rows, title="Table I: average speedup of HDagg over baselines"))
    elif name == "table2":
        h, rows, _ = tables.table2_metric_improvements(records, kernel=analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Table II: metric improvements (SpILU0, intel20)"))
    elif name == "table3":
        h, rows, _ = tables.table3_categories(records, kernel=analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Table III: category breakdown vs SpMP/Wavefront"))
    elif name == "fig4":
        h, rows, data = figures.fig4_pgp_vs_pg(records, kernel="sptrsv" if "sptrsv" in kernels else analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Figure 4: PGP vs measured PG (SpTRSV)"))
        out.append(format_kv({"R^2": data["r_squared"], "slope": data["slope"]}))
    elif name == "fig5":
        for kernel, (h, rows, _) in figures.fig5_per_matrix_speedups(records, machine=machine).items():
            out.append(format_table(h, rows, title=f"Figure 5: HDagg speedup per matrix ({kernel})"))
    elif name == "fig6":
        h, rows, _ = figures.fig6_performance_metrics(records, kernel=analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Figure 6: performance metrics (SpILU0, intel20)"))
    elif name == "fig7":
        h, rows, _ = figures.fig7_imbalance_ratio(records, kernel=analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Figure 7: load imbalance ratio (lower is better)"))
    elif name == "fig8":
        h, rows, data = figures.fig8_speedup_vs_locality(records, kernel=analysis_kernel, machine=machine)
        out.append(format_table(h, rows, title="Figure 8: speedup vs locality improvement"))
        out.append(format_kv({"R^2": data["r_squared"], "slope": data["slope"]}))
    elif name == "fig9":
        h, rows, data = figures.fig9_nre(records, machine=machine)
        out.append(format_table(h, rows, title="Figure 9: NRE per matrix (SpTRSV)"))
        out.append(format_kv(data["sptrsv"], title="average NRE (SpTRSV)"))
        out.append(format_kv({k: v["hdagg"] for k, v in data.items() if k != "sptrsv"},
                             title="average NRE of HDagg (factorisations)"))
    else:
        raise ValueError(f"unknown experiment {name!r}")
    return "\n\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        from ..analysis.cli import analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "trace":
        from ..observability.trace_cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "perf":
        from ..perflab.cli import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "lint":
        from ..statan.cli import lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        for s in SUITE:
            print(f"{s.name:14s} {s.family}")
        return 0
    specs = _select_specs(args)
    if args.experiment == "dataset":
        from .dataset_report import dataset_report

        print(dataset_report(specs, ordering=args.ordering))
        return 0
    if args.experiment == "scaling":
        from ..kernels import KERNELS
        from ..runtime.machine import MACHINES
        from ..sparse.ordering import apply_ordering
        from ..sparse.triangular import lower_triangle
        from .sweeps import strong_scaling

        machine = MACHINES[args.machines[0]]
        kernel = KERNELS[args.kernels[0]]
        spec = specs[0]
        a, _ = apply_ordering(spec.build(), args.ordering)
        operand = lower_triangle(a) if kernel.name == "sptrsv" else a
        g = kernel.dag(operand)
        cost = kernel.cost(operand)
        counts = sorted({1, 2, 4, machine.n_cores // 2, machine.n_cores})
        points = strong_scaling(g, cost, kernel.memory_model(operand, g), machine,
                                core_counts=counts)
        rows = [[p.algorithm, p.n_cores, p.speedup, p.efficiency] for p in points]
        print(format_table(["algorithm", "cores", "speedup", "efficiency"], rows,
                           title=f"Strong scaling: {spec.name}, {kernel.name}, {machine.name}"))
        return 0
    if args.resume and not args.journal:
        print("# --resume requires --journal", file=sys.stderr)
        return 2
    if args.store and args.jobs > 1:
        # fork workers re-inspect without the parent's cache
        print("# --store requires --jobs 1", file=sys.stderr)
        return 2
    if args.load_records:
        from .storage import load_records

        records = load_records(args.load_records)
        print(f"# loaded {len(records)} records from {args.load_records}", file=sys.stderr)
    else:
        kwargs = {}
        if args.epsilon is not None:
            kwargs["epsilon"] = args.epsilon
        if args.store:
            from ..core.schedule_cache import ScheduleCache
            from ..store import ScheduleStore

            kwargs["schedule_cache"] = ScheduleCache(store=ScheduleStore(args.store))
        harness = Harness(machines=args.machines, kernels=args.kernels,
                          ordering=args.ordering, **kwargs)
        journal = None
        if args.journal:
            from ..resilience.journal import JournalError, RunJournal

            try:
                journal = RunJournal(args.journal,
                                     fingerprint=harness.config_fingerprint(specs),
                                     resume=args.resume)
            except JournalError as exc:
                print(f"# {exc}", file=sys.stderr)
                return 2
            if args.resume and journal.completed:
                print(f"# resuming: {len(journal.completed)} matrices already in "
                      f"{args.journal}", file=sys.stderr)
        plan = None
        if args.faults is not None:
            from ..resilience.faults import FaultPlan

            plan = FaultPlan.chaos(args.faults)
            print(f"# chaos plan (seed {args.faults}):", file=sys.stderr)
            for line in plan.describe().splitlines():
                print(f"#   {line}", file=sys.stderr)
        from ..resilience.faults import armed

        isolate = plan is not None or journal is not None
        failures: List = []
        t0 = time.time()
        try:
            with armed(plan):
                records = harness.run_suite(
                    specs,
                    progress=True,
                    n_jobs=args.jobs,
                    isolate_failures=isolate,
                    failures=failures,
                    journal=journal,
                )
        finally:
            if journal is not None:
                journal.close()
        print(f"# {len(records)} records in {time.time() - t0:.1f}s", file=sys.stderr)
        for f in failures:
            print(f"# FAILED {f.describe()}", file=sys.stderr)
        if failures:
            print(f"# {len(failures)} matrices failed (isolated)", file=sys.stderr)
    if args.save_records:
        from .storage import save_records

        save_records(records, args.save_records)
        print(f"# saved records to {args.save_records}", file=sys.stderr)
    # "dataset" and "scaling" are handled above; exclude them from "all"
    names = (
        tuple(e for e in EXPERIMENTS if e not in ("dataset", "scaling"))
        if args.experiment == "all"
        else (args.experiment,)
    )
    results = {}
    for name in names:
        try:
            print(run_experiment(records, name))
            print()
            results[name] = "ok"
        except Exception as exc:  # surface which experiment failed, keep going
            print(f"[{name}] failed: {exc}", file=sys.stderr)
            results[name] = f"error: {exc}"
    if args.json:
        from .storage import record_to_blob

        dump_json({"records": [record_to_blob(r, encode_floats=False) for r in records],
                   "status": results}, args.json)
        print(f"# wrote {args.json}", file=sys.stderr)
    return 0 if all(v == "ok" for v in results.values()) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
