"""Runtime layer: machine models, simulator, exact-cache oracle, executors."""

from .cache import LRUCache
from .exact import ExactCacheStats, simulate_cache_exact
from .executor import ExecutionError, execute_schedule, interleaved_order, run_cores
from .machine import AMD64, INTEL20, LAPTOP4, MACHINES, MachineConfig
from .perf import StageTimer
from .simulator import SimulationResult, bind_dynamic_partitions, simulate

__all__ = [
    "MachineConfig",
    "INTEL20",
    "AMD64",
    "LAPTOP4",
    "MACHINES",
    "StageTimer",
    "LRUCache",
    "simulate",
    "simulate_cache_exact",
    "ExactCacheStats",
    "SimulationResult",
    "bind_dynamic_partitions",
    "execute_schedule",
    "run_cores",
    "ExecutionError",
    "interleaved_order",
]
