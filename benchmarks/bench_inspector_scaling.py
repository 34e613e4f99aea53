"""Section IV-E: inspector complexity scaling.

The paper derives O(|E| * E[D] + |V| * Var[D]) for the transitive
reduction, O(|V| + |E|) for subtree aggregation, and O(l * |E| * log|V|)
for the per-merge connected components.  This benchmark times the real
stages of this implementation over a Poisson size sweep and checks the
growth is near-linear in |E| (doubling nnz must not quadruple stage time).

The full-inspector sweep times the stage functions of the numpy tier and,
when the native library is built, of the compiled tier too, in one run.
Besides the human-readable table it emits
``benchmarks/output/BENCH_inspector.json`` — machine-readable per-size,
per-tier timings (total plus per-stage) so regression tooling can diff
inspector performance across commits without parsing text tables.
"""

import time

import numpy as np
import pytest

from _common import write_json_payload, write_report
from repro.core import hdagg, subtree_grouping
from repro.core.backends.compiled import coarsen_compiled, coarsen_numpy, lbp_coarsen_compiled
from repro.core.backends.native import available as native_available
from repro.core.hdagg import expand_lbp_to_schedule
from repro.core.lbp import lbp_coarsen
from repro.core.pgp import DEFAULT_EPSILON
from repro.graph import dag_from_matrix_lower, transitive_reduction_two_hop
from repro.kernels import KERNELS
from repro.sparse import apply_ordering, poisson2d
from repro.suite import format_table

SIZES = [32, 48, 64, 96, 128, 192]


@pytest.fixture(scope="module")
def dags():
    out = []
    for nx in SIZES:
        a, _ = apply_ordering(poisson2d(nx, seed=1), "nd")
        g = dag_from_matrix_lower(a)
        out.append((nx, a, g))
    return out


def test_transitive_reduction_scaling(benchmark, dags, output_dir):
    _, _, g_mid = dags[-2]
    benchmark(transitive_reduction_two_hop, g_mid)


def test_subtree_grouping_scaling(benchmark, dags):
    _, _, g_mid = dags[-2]
    g_red = transitive_reduction_two_hop(g_mid)
    benchmark(subtree_grouping, g_red)


#: the stage functions each tier runs, in pass order (the compiled tier
#: replaces the two stages the native library covers)
TIERS = {
    "numpy": {"coarsen": coarsen_numpy, "lbp": lbp_coarsen},
    "compiled": {"coarsen": coarsen_compiled, "lbp": lbp_coarsen_compiled},
}


def _inspect(g, cost, p, tier):
    """HDagg through ``tier``'s stage functions: ``(schedule, stage_ms)``."""
    stages = TIERS[tier]
    ms = {}

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        ms[name] = (time.perf_counter() - t0) * 1e3
        return out

    reduced = timed("transitive_reduction", transitive_reduction_two_hop, g)
    cap = 0.25 * float(cost.sum()) / p  # hdagg's default group_cost_cap_fraction
    grouping = timed("aggregation", subtree_grouping, reduced, cost, cap)
    g2, group_cost = timed("coarsen", stages["coarsen"], reduced, grouping, cost)
    lbp = timed("lbp", stages["lbp"], g2, group_cost, p, DEFAULT_EPSILON)
    s = timed("expand", expand_lbp_to_schedule, lbp, grouping, g.n, p)
    return s, ms


def test_full_inspector_scaling(benchmark, dags, output_dir):
    """Times both tiers' stage functions at every size (the compiled tier
    only when the native library is built) and checks they agree."""
    tiers = ["numpy"] + (["compiled"] if native_available() else [])
    rows = []
    json_rows = []
    times = {tier: [] for tier in tiers}
    for nx, a, g in dags:
        cost = KERNELS["sptrsv"].cost(a)  # full-matrix cost proxy, fine for timing
        cost = np.asarray(cost, dtype=float)[: g.n]
        orders = []
        for tier in tiers:
            s, stage_ms = _inspect(g, cost, 20, tier)
            total = sum(stage_ms.values())
            times[tier].append(total)
            orders.append(s.order)
            rows.append([f"poisson2d({nx})", tier, g.n, g.n_edges, total, s.n_levels])
            json_rows.append(
                {
                    "matrix": f"poisson2d({nx})",
                    "tier": tier,
                    "n": int(g.n),
                    "edges": int(g.n_edges),
                    "inspector_ms": total,
                    "stage_ms": stage_ms,
                    "coarse_wavefronts": int(s.n_levels),
                }
            )
        assert all(np.array_equal(o, orders[0]) for o in orders)
    write_report(
        output_dir,
        "inspector_scaling",
        format_table(
            ["matrix", "tier", "V", "E", "inspector ms", "coarse wavefronts"],
            rows,
            title="HDagg inspector scaling (Section IV-E)",
        ),
    )
    write_json_payload(output_dir, "BENCH_inspector", {"tiers": tiers, "sizes": json_rows})
    # near-linear growth: more edges should cost well under quadratically
    # more time
    edge_ratio = dags[-1][2].n_edges / dags[0][2].n_edges
    for tier in tiers:
        time_ratio = times[tier][-1] / max(times[tier][0], 1e-9)
        assert time_ratio < edge_ratio**2, (tier, time_ratio, edge_ratio)

    # benchmark the largest instance (the tier hdagg runs) for the timing report
    nx, a, g = dags[-1]
    cost = np.ones(g.n)
    benchmark.pedantic(hdagg, args=(g, cost, 20), rounds=3, iterations=1)
