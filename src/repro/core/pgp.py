"""Potential Gain Proxy (PGP) — the paper's static load-balance metric.

Section IV-D, Equation 1::

    PGP = 1 - mean(B) / max(B)

where ``B = {B_1 .. B_p}`` are per-core workloads (``B_i`` = summed vertex
cost on core ``i``).  PGP is 0 for a perfectly balanced assignment and
approaches ``1 - 1/p`` when one core carries everything; it estimates the
fraction of runtime that perfect balancing would recover, and Figure 4 shows
it tracks the measured potential gain with R² ≈ 0.83.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .schedule import Schedule

__all__ = [
    "pgp", "pgp_of_loads", "pairwise_sum", "pgp_worst_case", "accumulated_pgp",
    "DEFAULT_EPSILON",
]

#: Default load-balance threshold epsilon (Listing 2's ``epsilon()``):
#: coarsened wavefronts whose PGP exceeds this are cut.  0.3 tolerates the
#: mild first-fit unevenness of packing a few hundred components into p
#: bins while still cutting genuinely imbalanced merges; the ablation
#: benchmark sweeps it (see benchmarks/bench_ablation.py).
DEFAULT_EPSILON = 0.3


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a float64 sequence, term for term, on Python floats.

    Replays NumPy's pairwise reduction: sequential below 8 terms, eight
    interleaved accumulators up to 128, recursive halving (split rounded
    down to a multiple of 8) above.  The scalar LBP walk sums bin targets
    and loads with it, so its packings and PGP values equal those computed
    on arrays bit for bit.

    >>> pairwise_sum([0.1] * 10) == float(np.sum([0.1] * 10))
    True
    """
    n = len(values)
    if n < 8:
        return float(sum(values, 0.0))
    if n <= 128:
        n8 = n - n % 8
        r = [sum(values[j:n8:8], 0.0) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return sum(values[n8:], res)
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(values[:n2]) + pairwise_sum(values[n2:])


def pgp_of_loads(loads: List[float]) -> float:
    """:func:`pgp` of a non-empty list of Python floats (no array round trip)."""
    mx = max(loads)
    if mx <= 0.0:
        return 0.0
    # clamp: floating-point summation can push mean/max a few ulp past 1
    return max(0.0, 1.0 - pairwise_sum(loads) / len(loads) / mx)


def pgp(bin_loads: Sequence[float] | np.ndarray) -> float:
    """PGP of one set of per-core loads (Equation 1); 0 when all loads are 0.

    >>> pgp([5.0, 5.0])
    0.0
    >>> pgp([10.0, 0.0])   # the paper's p = 2 worked example
    0.5
    >>> pgp([])
    0.0
    """
    b = np.asarray(bin_loads, dtype=np.float64).ravel().tolist()
    return pgp_of_loads(b) if b else 0.0


def pgp_worst_case(p: int) -> float:
    """PGP when one of ``p`` cores carries all work: ``1 - 1/p``.

    >>> pgp_worst_case(4)
    0.75
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return 1.0 - 1.0 / p


def accumulated_pgp(schedule: "Schedule", vertex_cost: np.ndarray) -> float:
    """Schedule-wide PGP (Algorithm 1, Lines 36-38).

    Accumulates loads across coarsened wavefronts: the executor runs levels
    sequentially, so the effective span is the sum over levels of each
    level's maximum load while the useful work is the sum of means::

        PGP(S) = 1 - (sum_k mean(B^k)) / (sum_k max(B^k))

    This is the "accumulation of imbalance cost across all coarsened
    wavefronts" that decides whether bin packing is disabled.
    """
    vertex_cost = np.asarray(vertex_cost, dtype=np.float64)
    total_mean = 0.0
    total_max = 0.0
    for loads in schedule.level_loads(vertex_cost):
        total_mean += float(loads.mean())
        total_max += float(loads.max())
    if total_max <= 0.0:
        return 0.0
    return max(0.0, 1.0 - total_mean / total_max)
