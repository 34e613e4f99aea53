"""Python wrappers around the compiled backend library.

Each wrapper matches its numpy counterpart's signature and produces
bit-identical results (enforced by tests/core/test_backend_differential).
When the library is not built, and on any native error (cycle,
allocation failure), the wrapper runs the numpy implementation, so error
behaviour — including the exception type raised for cyclic graphs —
comes from the canonical path.
"""

from __future__ import annotations

import ctypes
from typing import Tuple

import numpy as np

from ...graph.coarsen import Grouping, coarsen_dag
from ...graph.dag import DAG
from ...graph.wavefronts import Wavefronts, compute_wavefronts
from ..lbp import LBPDecision, LBPResult, _check_inputs, lbp_coarsen
from ..pgp import DEFAULT_EPSILON
from ..schedule import ptr_from_counts
from .native import load

__all__ = [
    "wavefronts_compiled", "lbp_coarsen_compiled", "coarsen_compiled", "coarsen_numpy",
]


def wavefronts_compiled(g: DAG) -> Wavefronts:
    """Compiled level sets; drop-in for
    :func:`repro.graph.wavefronts.compute_wavefronts`."""
    lib = load()
    if lib is None or g.n == 0:
        return compute_wavefronts(g)
    n = g.n
    level = np.empty(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    ptr = np.zeros(n + 1, dtype=np.int64)
    n_levels = ctypes.c_int64(0)
    rc = lib.hd_wavefronts(
        n, np.ascontiguousarray(g.indptr, dtype=np.int64),
        np.ascontiguousarray(g.indices, dtype=np.int64),
        level, order, ptr, ctypes.byref(n_levels),
    )
    if rc != 0:  # cycle or OOM: canonical path raises the canonical error
        return compute_wavefronts(g)
    ptr = np.ascontiguousarray(ptr[: n_levels.value + 1])
    return Wavefronts(level=level, order=order, ptr=ptr)


def lbp_coarsen_compiled(
    g2: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    allow_fine_grained: bool = True,
) -> LBPResult:
    """Compiled LBP walk (first-fit packing included); drop-in for
    :func:`repro.core.lbp.lbp_coarsen`.  The library writes the flat
    :class:`LBPResult` arrays directly."""
    lib = load()
    if lib is None or g2.n == 0:
        return lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=allow_fine_grained)
    cost = np.ascontiguousarray(_check_inputs(g2, cost, p))
    n = g2.n
    waves = wavefronts_compiled(g2)
    l = waves.n_levels
    cw_lo = np.empty(l, dtype=np.int64)
    cw_ptr = np.zeros(l + 1, dtype=np.int64)
    vertices = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int64)
    comp_bin = np.empty(n, dtype=np.int64)
    loads = np.empty(l * p, dtype=np.float64)
    n_dec = max(l - 1, 1)
    dec_pgp = np.empty(n_dec, dtype=np.float64)
    dec_merged = np.zeros(n_dec, dtype=np.uint8)
    n_cw = ctypes.c_int64(0)
    rc = lib.hd_lbp(
        n, np.ascontiguousarray(g2.indptr, dtype=np.int64),
        np.ascontiguousarray(g2.indices, dtype=np.int64), cost, p, float(epsilon),
        waves.level, waves.order, waves.ptr, l,
        cw_lo, cw_ptr, vertices, sizes, comp_bin, loads,
        dec_pgp, dec_merged, ctypes.byref(n_cw),
    )
    if rc != 0:  # pragma: no cover - allocation failure
        return lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=allow_fine_grained)
    k = int(n_cw.value)
    n_comp = int(cw_ptr[k])
    decisions = [
        LBPDecision(wave=i, pgp=s, merged=bool(m))
        for i, (s, m) in enumerate(zip(dec_pgp[: l - 1].tolist(), dec_merged.tolist()), 1)
    ]
    return LBPResult.assemble(
        vertices,
        ptr_from_counts(sizes[:n_comp]),
        np.ascontiguousarray(comp_bin[:n_comp]),
        np.ascontiguousarray(cw_ptr[: k + 1]),
        np.append(cw_lo[:k], l),
        loads[: k * p].reshape(k, p),
        waves, decisions, epsilon, allow_fine_grained,
    )


def coarsen_numpy(
    g_base: DAG, grouping: Grouping, cost: np.ndarray
) -> Tuple[DAG, np.ndarray]:
    """The numpy coarsen stage: ``G''`` and its per-group costs."""
    return coarsen_dag(g_base, grouping), grouping.group_costs(cost)


def coarsen_compiled(
    g_base: DAG, grouping: Grouping, cost: np.ndarray
) -> Tuple[DAG, np.ndarray]:
    """Compiled ``G''`` construction + group costs; drop-in for
    :func:`coarsen_numpy`."""
    lib = load()
    if lib is None:
        return coarsen_numpy(g_base, grouping, cost)
    n = g_base.n
    n_groups = grouping.n_groups
    labels = np.ascontiguousarray(grouping.labels, dtype=np.int64)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    indptr = np.ascontiguousarray(g_base.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(g_base.indices, dtype=np.int64)
    out_indptr = np.zeros(n_groups + 1, dtype=np.int64)
    out_indices = np.empty(max(g_base.n_edges, 1), dtype=np.int64)
    group_cost = np.empty(max(n_groups, 1), dtype=np.float64)
    n_edges = ctypes.c_int64(0)
    rc = lib.hd_coarsen(
        n, indptr, indices, labels, n_groups, cost,
        out_indptr, out_indices, ctypes.byref(n_edges), group_cost,
    )
    if rc != 0:  # pragma: no cover - allocation failure
        return coarsen_numpy(g_base, grouping, cost)
    g2 = DAG(
        n_groups,
        out_indptr,
        np.ascontiguousarray(out_indices[: int(n_edges.value)]),
        check=False,
    )
    return g2, group_cost[:n_groups]
