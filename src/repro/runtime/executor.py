"""Schedule-driven execution of real kernel numerics.

Python threads cannot exhibit real parallel speedups (GIL), so the executor
validates the *correctness* contract of a schedule instead: any interleaving
of the width-partitions of one level, with each partition's vertices in
order, must compute the same result as the sequential kernel.  Two
interleavings are provided:

* :func:`execute_schedule` — the canonical order (levels, then partitions,
  then vertices);
* :func:`interleaved_order` — a seeded pseudo-random round-robin across the
  partitions of each level, emulating an adversarial concurrent timing.

Both go through the kernels' ``execute_in_order``, which checks the whole
order against every dependence once, raising on any violation, and then runs
it in that order, so a schedule bug cannot silently produce a
correct-looking number.
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import Schedule
from ..kernels.base import SparseKernel
from ..sparse.csr import CSRMatrix, INDEX_DTYPE

__all__ = ["execute_schedule", "interleaved_order"]


def interleaved_order(schedule: Schedule, *, seed: int = 0) -> np.ndarray:
    """A randomised order consistent with the schedule's concurrency.

    Within each level, one vertex is drawn at a time from a randomly chosen
    still-active partition (partitions advance front to back, as the cores
    would).  Levels remain strictly ordered.  For ``sync="p2p"`` schedules
    this is *more* conservative than the runtime allows (no cross-level
    overlap), which is the safe direction for a correctness check.
    """
    rng = np.random.default_rng(seed)
    order = schedule.order.tolist()
    ptr = schedule.part_ptr.tolist()
    out = np.empty(len(order), dtype=INDEX_DTYPE)
    filled = 0
    lp = schedule.level_ptr.tolist()
    for lo, hi in zip(lp[:-1], lp[1:]):
        cursors = ptr[lo:hi]  # next slot of each partition in the level
        active = list(range(hi - lo))
        while active:
            k = active[int(rng.integers(len(active)))]
            out[filled] = order[cursors[k]]
            filled += 1
            cursors[k] += 1
            if cursors[k] == ptr[lo + k + 1]:
                active.remove(k)
    return out


def execute_schedule(
    kernel: SparseKernel,
    a: CSRMatrix,
    schedule: Schedule,
    b: np.ndarray | None = None,
    *,
    interleave_seed: int | None = None,
):
    """Run ``kernel`` on ``a`` following ``schedule``.

    With ``interleave_seed`` set, uses a randomised level-consistent
    interleaving instead of the canonical order.  Dependence violations
    raise :class:`repro.kernels.base.KernelError`.
    """
    if interleave_seed is None:
        order = schedule.execution_order()
    else:
        order = interleaved_order(schedule, seed=interleave_seed)
    return kernel.execute_in_order(a, order, b)
