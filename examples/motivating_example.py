#!/usr/bin/env python
"""The paper's motivating example (Figures 1-3) on a small visible DAG.

Builds a 13-vertex DAG with transitive edges, subtrees, and uneven costs,
then prints the schedule every algorithm produces for two cores, plus the
inner artefacts of HDagg's two steps — the reduced DAG, the subtree
groups, and the LBP merge/cut decisions.

Run:  python examples/motivating_example.py
"""

import numpy as np

from repro.core import hdagg, lbp_coarsen, pgp, subtree_grouping
from repro.graph import DAG, coarsen_dag, compute_wavefronts, transitive_reduction_two_hop
from repro.schedulers import SCHEDULERS

P = 2


def build_example_dag() -> DAG:
    """A DAG in the spirit of Figure 2(a): 13 vertices, three transitive
    edges (they vanish under reduction), two multi-vertex subtrees."""
    edges = [
        (0, 3), (1, 2), (2, 3), (0, 4), (2, 4),
        (3, 9), (4, 9), (1, 3),          # (1,3) transitive via 2
        (5, 7), (6, 7), (7, 8), (5, 8),  # (5,8) transitive via 7
        (8, 9), (8, 10),
        (9, 11), (10, 11), (11, 12), (9, 12),  # (9,12) transitive via 11
    ]
    return DAG.from_edges(13, [e[0] for e in edges], [e[1] for e in edges])


def show_schedule(name: str, schedule) -> None:
    print(f"\n--- {name}: {schedule.n_levels} level(s), sync={schedule.sync} ---")
    # coarsened wavefront k is partitions level_ptr[k]:level_ptr[k+1];
    # partition j is order[part_ptr[j]:part_ptr[j+1]] on core part_core[j]
    lp, pp = schedule.level_ptr, schedule.part_ptr
    for k in range(schedule.n_levels):
        parts = ", ".join(
            f"core{schedule.part_core[j]}: {schedule.order[pp[j]:pp[j + 1]].tolist()}"
            for j in range(lp[k], lp[k + 1])
        )
        print(f"  CW{k}: {parts}")


def main() -> None:
    g = build_example_dag()
    cost = np.ones(g.n)
    cost[9] = 3.0  # vertex 9 is heavy, like the dense rows of Listing 1

    print(f"DAG: {g.n} vertices, {g.n_edges} edges")
    print("wavefronts:", [compute_wavefronts(g).wavefront(k).tolist()
                          for k in range(compute_wavefronts(g).n_levels)])

    # ---- Step 1 internals (Figure 2 a-b) ----------------------------
    g_red = transitive_reduction_two_hop(g)
    removed = g.n_edges - g_red.n_edges
    print(f"\ntransitive reduction removed {removed} edges")
    grouping = subtree_grouping(g_red)
    print("subtree groups:", [grp.tolist() for grp in grouping.groups if grp.size > 1])

    # ---- Step 2 internals (Figures 2c-d, 3) -------------------------
    g2 = coarsen_dag(g_red, grouping)
    res = lbp_coarsen(g2, grouping.group_costs(cost), P, epsilon=0.34)
    walk = " ".join(
        f"W{d.wave}:{'merge' if d.merged else 'CUT'}({d.pgp:.2f})"
        for d in res.decisions
    )
    print(f"Figure-3 decision walk: {walk}")
    for cw in res.coarsened:
        print(
            f"  merged waves [{cw.wave_lo}:{cw.wave_hi}) -> "
            f"{len(cw.components)} components, PGP={cw.pgp:.2f}"
        )

    # ---- all five schedules (Figure 1) ------------------------------
    for name in ("wavefront", "spmp", "lbc", "dagp", "hdagg"):
        if name == "hdagg":
            s = hdagg(g, cost, P, epsilon=0.34)
        else:
            s = SCHEDULERS[name](g, cost, P)
        s.validate(g)
        show_schedule(name, s)

    waves = compute_wavefronts(g)
    s = hdagg(g, cost, P, epsilon=0.34)
    print(
        f"\nHDagg uses {s.n_levels - 1} barriers vs {waves.n_levels - 1} "
        f"for wavefront scheduling (Figure 1(e) vs 1(a))"
    )


if __name__ == "__main__":
    main()
