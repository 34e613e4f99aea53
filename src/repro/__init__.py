"""HDagg reproduction: hybrid aggregation of loop-carried dependence iterations.

A full Python implementation of *HDagg: Hybrid Aggregation of Loop-carried
Dependence Iterations in Sparse Matrix Computations* (Zarebavani, Cheshmi,
Liu, Strout, Mehri Dehnavi — IPDPS 2022), including every substrate the
paper depends on: a CSR sparse-matrix layer, DAG machinery (transitive
reduction, wavefronts, connected components), the three kernels (SpTRSV,
SpIC0, SpILU0), the four baseline inspectors (Wavefront, SpMP, LBC, DAGP)
plus an MKL-style vendor stand-in, an execution simulator that reproduces
the paper's locality / load-balance / synchronisation metrics, and a
34-matrix evaluation harness regenerating every table and figure.

Quick start (the paper's Listing 2 in Python)::

    from repro import SpILU0, hdagg, num_cores, epsilon
    from repro.sparse import poisson2d

    A = poisson2d(64)                 # or read_matrix_market("mat.mtx")
    kernel = SpILU0()
    # ------------ inspector ------------
    G = kernel.dag(A)
    C = kernel.cost(A)
    S = hdagg(G, C, num_cores(), epsilon())
    # ------------ executor -------------
    factor = kernel.execute_in_order(A, S.execution_order())
"""

from __future__ import annotations

import os

from .analysis import (
    check_trace,
    detect_races,
    kernel_footprint,
    run_mutation_suite,
    verify_dependences,
)
from .core import (
    DEFAULT_EPSILON,
    DependenceWitness,
    Schedule,
    ScheduleError,
    accumulated_pgp,
    hdagg,
    pgp,
)
from .graph import DAG, compute_wavefronts, transitive_reduction_two_hop
from .kernels import KERNELS, SpIC0, SpILU0, SpTRSV, SparseKernel
from .runtime import (
    AMD64,
    INTEL20,
    LAPTOP4,
    MACHINES,
    MachineConfig,
    SimulationResult,
    execute_schedule,
    simulate,
)
from .schedulers import SCHEDULERS, get_scheduler
from .sparse import CSRMatrix, csr_from_coo, csr_from_dense, read_matrix_market

__version__ = "1.0.0"

__all__ = [
    "hdagg",
    "pgp",
    "accumulated_pgp",
    "DEFAULT_EPSILON",
    "Schedule",
    "ScheduleError",
    "DependenceWitness",
    "verify_dependences",
    "detect_races",
    "kernel_footprint",
    "check_trace",
    "run_mutation_suite",
    "DAG",
    "compute_wavefronts",
    "transitive_reduction_two_hop",
    "CSRMatrix",
    "csr_from_coo",
    "csr_from_dense",
    "read_matrix_market",
    "SparseKernel",
    "SpTRSV",
    "SpIC0",
    "SpILU0",
    "KERNELS",
    "SCHEDULERS",
    "get_scheduler",
    "MachineConfig",
    "MACHINES",
    "INTEL20",
    "AMD64",
    "LAPTOP4",
    "simulate",
    "SimulationResult",
    "execute_schedule",
    "num_cores",
    "epsilon",
    "__version__",
]


def num_cores() -> int:
    """Number of physical cores (Listing 2's ``num_cores()``)."""
    return os.cpu_count() or 1


def epsilon() -> float:
    """The predefined load-balance threshold (Listing 2's ``epsilon()``)."""
    return DEFAULT_EPSILON
