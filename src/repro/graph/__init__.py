"""DAG substrate: CSR-backed graphs, reductions, wavefronts, components."""

from .build import dag_from_lower_triangular, dag_from_matrix_lower, dag_to_matrix_pattern
from .coarsen import (
    Grouping,
    coarsen_dag,
    grouping_from_groups,
    grouping_from_labels,
    identity_grouping,
)
from .connected_components import (
    components_as_lists,
    connected_components_of_subset,
    shiloach_vishkin,
)
from .dag import DAG, gather_slices
from .generators import chain_dag, fan_dag, layered_dag, random_forest, series_parallel_dag
from .topological import CycleError, is_acyclic, topological_order, verify_schedule_order
from .transitive_reduction import (
    transitive_edge_mask,
    transitive_edge_mask_reference,
    transitive_reduction_reference,
    transitive_reduction_two_hop,
)
from .wavefronts import Wavefronts, compute_wavefronts, level_of_vertices

__all__ = [
    "DAG",
    "gather_slices",
    "layered_dag",
    "random_forest",
    "chain_dag",
    "fan_dag",
    "series_parallel_dag",
    "dag_from_lower_triangular",
    "dag_from_matrix_lower",
    "dag_to_matrix_pattern",
    "Grouping",
    "grouping_from_labels",
    "grouping_from_groups",
    "identity_grouping",
    "coarsen_dag",
    "shiloach_vishkin",
    "connected_components_of_subset",
    "components_as_lists",
    "topological_order",
    "is_acyclic",
    "CycleError",
    "verify_schedule_order",
    "transitive_reduction_two_hop",
    "transitive_reduction_reference",
    "transitive_edge_mask",
    "transitive_edge_mask_reference",
    "Wavefronts",
    "compute_wavefronts",
    "level_of_vertices",
]
