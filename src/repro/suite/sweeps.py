"""Strong-scaling sweep.

The paper evaluates two fixed core counts (20 and 64); a strong-scaling
sweep interpolates between them and exposes where each scheduler saturates
— the natural extension experiment for a schedule-quality study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..graph.dag import DAG
from ..kernels.memory import MemoryModel
from ..runtime.machine import MachineConfig
from ..runtime.simulator import simulate
from ..schedulers import SCHEDULERS

__all__ = ["ScalingPoint", "strong_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One (algorithm, core-count) sample of a strong-scaling sweep."""

    algorithm: str
    n_cores: int
    speedup: float
    efficiency: float
    potential_gain: float
    avg_memory_access_latency: float


def strong_scaling(
    g: DAG,
    cost: np.ndarray,
    memory: MemoryModel,
    machine: MachineConfig,
    *,
    algorithms: Sequence[str] = ("hdagg", "spmp", "wavefront"),
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 20),
) -> List[ScalingPoint]:
    """Simulated speedup vs active core count on one machine family.

    Each point re-runs the inspector for that core count (schedules are
    core-count-specific) and simulates on ``machine.scaled(p)`` so cache
    share grows as cores shrink, exactly like binding fewer threads on the
    real socket.
    """
    cost = np.asarray(cost, dtype=np.float64)
    serial = simulate(SCHEDULERS["serial"](g, cost), g, cost, memory, machine.scaled(1))
    points: List[ScalingPoint] = []
    for algo in algorithms:
        for p in core_counts:
            m = machine.scaled(p) if p != machine.n_cores else machine
            schedule = SCHEDULERS[algo](g, cost, p)
            result = simulate(schedule, g, cost, memory, m)
            speedup = (
                serial.makespan_cycles / result.makespan_cycles
                if result.makespan_cycles > 0
                else float("inf")
            )
            points.append(
                ScalingPoint(
                    algorithm=algo,
                    n_cores=p,
                    speedup=speedup,
                    efficiency=speedup / p,
                    potential_gain=result.potential_gain,
                    avg_memory_access_latency=result.avg_memory_access_latency,
                )
            )
    return points
