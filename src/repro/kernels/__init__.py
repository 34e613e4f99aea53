"""Sparse kernels with loop-carried dependence: SpTRSV, SpIC0, SpILU0."""

from .base import KernelError, SparseKernel, lines_of_rows
from .memory import MemoryModel, factor_memory_model, sptrsv_memory_model
from .cost import spic0_cost, spilu0_cost, sptrsv_cost, uniform_cost
from .cholesky import SpChol, cholesky_in_order, cholesky_reference, embed_in_fill_pattern
from .gauss_seidel import GaussSeidel, gauss_seidel_in_order, gauss_seidel_sweep
from .spic0 import SpIC0, ic0_defect, spic0_in_order, spic0_reference
from .spilu0 import SpILU0, ilu0_defect, spilu0_in_order, spilu0_reference, split_lu
from .sptrsv import (
    SpTRSV,
    check_solvable,
    sptrsv_levelwise,
    sptrsv_reference,
    sptrsv_transpose_levelwise,
    sptrsv_transpose_reference,
)

__all__ = [
    "SparseKernel",
    "KernelError",
    "lines_of_rows",
    "SpTRSV",
    "SpIC0",
    "SpILU0",
    "GaussSeidel",
    "SpChol",
    "cholesky_reference",
    "cholesky_in_order",
    "embed_in_fill_pattern",
    "gauss_seidel_sweep",
    "gauss_seidel_in_order",
    "sptrsv_reference",
    "sptrsv_levelwise",
    "sptrsv_transpose_reference",
    "sptrsv_transpose_levelwise",
    "check_solvable",
    "spic0_reference",
    "spic0_in_order",
    "ic0_defect",
    "spilu0_reference",
    "spilu0_in_order",
    "ilu0_defect",
    "split_lu",
    "MemoryModel",
    "sptrsv_memory_model",
    "factor_memory_model",
    "sptrsv_cost",
    "spic0_cost",
    "spilu0_cost",
    "uniform_cost",
]

#: Registry used by the harness and CLI ("sptrsv" -> kernel instance).
KERNELS = {k.name: k for k in (SpTRSV(), SpIC0(), SpILU0(), GaussSeidel(), SpChol())}
