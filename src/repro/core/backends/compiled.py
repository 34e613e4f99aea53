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
from typing import List, Tuple

import numpy as np

from ...graph.coarsen import Grouping, coarsen_dag
from ...graph.dag import DAG
from ...graph.wavefronts import Wavefronts, compute_wavefronts
from ...sparse.csr import INDEX_DTYPE
from ..binpack import BinPacking
from ..lbp import CoarsenedWavefront, LBPDecision, LBPResult, lbp_coarsen
from ..pgp import DEFAULT_EPSILON
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
    :func:`repro.core.lbp.lbp_coarsen`."""
    lib = load()
    if lib is None:
        return lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=allow_fine_grained)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if cost.shape[0] != g2.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g2.n}")
    n = g2.n
    if n == 0:
        return LBPResult(
            coarsened=[], waves=compute_wavefronts(g2), fine_grained=False,
            accumulated_pgp=0.0, decisions=[],
        )

    waves = wavefronts_compiled(g2)
    l = waves.n_levels
    indptr = np.ascontiguousarray(g2.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(g2.indices, dtype=np.int64)

    cw_lo = np.empty(l, dtype=np.int64)
    cw_hi = np.empty(l, dtype=np.int64)
    cw_vptr = np.zeros(l + 1, dtype=np.int64)
    cw_verts = np.empty(n, dtype=np.int64)
    cw_cptr = np.zeros(l + 1, dtype=np.int64)
    cw_sizes = np.empty(n, dtype=np.int64)
    cw_assign = np.empty(n, dtype=np.int64)
    cw_loads = np.empty(l * p, dtype=np.float64)
    n_dec = max(l - 1, 1)
    dec_pgp = np.empty(n_dec, dtype=np.float64)
    dec_merged = np.zeros(n_dec, dtype=np.uint8)
    n_cw = ctypes.c_int64(0)
    acc = ctypes.c_double(0.0)
    fine = ctypes.c_uint8(0)
    rc = lib.hd_lbp(
        n, indptr, indices, cost, p, float(epsilon),
        1 if allow_fine_grained else 0,
        waves.level, waves.order, waves.ptr, l,
        cw_lo, cw_hi, cw_vptr, cw_verts,
        cw_cptr, cw_sizes, cw_assign, cw_loads,
        dec_pgp, dec_merged,
        ctypes.byref(n_cw), ctypes.byref(acc), ctypes.byref(fine),
    )
    if rc != 0:  # pragma: no cover - allocation failure
        return lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=allow_fine_grained)

    coarsened: List[CoarsenedWavefront] = []
    for i in range(int(n_cw.value)):
        sv = cw_verts[cw_vptr[i] : cw_vptr[i + 1]]
        sizes = cw_sizes[cw_cptr[i] : cw_cptr[i + 1]]
        starts = [0]
        for s in sizes.tolist()[:-1]:
            starts.append(starts[-1] + s)
        components = [
            np.ascontiguousarray(sv[a : a + s])
            for a, s in zip(starts, sizes.tolist())
        ]
        packing = BinPacking(
            assignment=np.ascontiguousarray(
                cw_assign[cw_cptr[i] : cw_cptr[i + 1]], dtype=INDEX_DTYPE
            ),
            loads=np.ascontiguousarray(cw_loads[i * p : (i + 1) * p]),
        )
        coarsened.append(
            CoarsenedWavefront(
                wave_lo=int(cw_lo[i]), wave_hi=int(cw_hi[i]),
                components=components, packing=packing,
            )
        )
    decisions = [
        LBPDecision(wave=i, pgp=float(dec_pgp[i - 1]), merged=bool(dec_merged[i - 1]))
        for i in range(1, l)
    ]
    return LBPResult(
        coarsened=coarsened, waves=waves,
        fine_grained=bool(fine.value), accumulated_pgp=float(acc.value),
        decisions=decisions,
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
