"""Sparse-matrix substrate: CSR storage, IO, generators, orderings.

This subpackage is the foundation every other layer builds on.  It is
self-contained (no imports from the rest of :mod:`repro`) so it can be reused
independently of the scheduling machinery.
"""

from .csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE, csr_from_coo, csr_from_dense, csr_from_scipy
from .generators import (
    arrowhead_spd,
    banded_spd,
    block_diagonal_spd,
    kite_chain_spd,
    ladder_spd,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
    spd_from_pattern,
    tridiagonal_spd,
)
from .io_mm import (
    MatrixMarketParseError,
    dumps_matrix_market,
    loads_matrix_market,
    read_matrix_market,
    write_matrix_market,
)
from .linalg import CGResult, conjugate_gradient, dense_lower_solve, dense_upper_solve, residual_norm
from .ordering import apply_ordering, natural, nested_dissection, random_permutation, rcm
from .sanitize import CSRSanitizeError, SanitizeIssue, SanitizeReport, sanitize_csr
from .properties import (
    bandwidth,
    density,
    is_numerically_symmetric,
    is_structurally_symmetric,
    profile,
)
from .symbolic import elimination_tree, elimination_tree_from_matrix, fill_in, symbolic_cholesky
from .triangular import (
    is_lower_triangular,
    is_upper_triangular,
    lower_triangle,
    strict_lower_triangle,
    strict_upper_triangle,
    unit_diagonal_lower,
    upper_triangle,
)

__all__ = [
    "CSRMatrix",
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "csr_from_coo",
    "csr_from_dense",
    "csr_from_scipy",
    "read_matrix_market",
    "write_matrix_market",
    "loads_matrix_market",
    "dumps_matrix_market",
    "MatrixMarketParseError",
    "sanitize_csr",
    "CSRSanitizeError",
    "SanitizeIssue",
    "SanitizeReport",
    "poisson2d",
    "poisson3d",
    "banded_spd",
    "random_spd",
    "tridiagonal_spd",
    "block_diagonal_spd",
    "arrowhead_spd",
    "power_law_spd",
    "ladder_spd",
    "kite_chain_spd",
    "spd_from_pattern",
    "rcm",
    "nested_dissection",
    "natural",
    "random_permutation",
    "apply_ordering",
    "lower_triangle",
    "upper_triangle",
    "strict_lower_triangle",
    "strict_upper_triangle",
    "is_lower_triangular",
    "is_upper_triangular",
    "unit_diagonal_lower",
    "is_structurally_symmetric",
    "is_numerically_symmetric",
    "bandwidth",
    "profile",
    "density",
    "elimination_tree",
    "elimination_tree_from_matrix",
    "symbolic_cholesky",
    "fill_in",
    "dense_lower_solve",
    "dense_upper_solve",
    "residual_norm",
    "conjugate_gradient",
    "CGResult",
]
