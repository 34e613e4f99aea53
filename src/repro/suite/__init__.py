"""Evaluation suite: dataset, harness, and table/figure regeneration."""

from .autotune import DEFAULT_CANDIDATES, SchedulerChoice, choose_scheduler
from .dataset_report import dataset_report, dataset_rows
from .harness import DEFAULT_ALGORITHMS, Harness, MatrixContext, RunRecord
from .matrices import FAMILIES, SUITE, MatrixSpec, small_suite, suite_by_name
from .reporting import dump_json, format_kv, format_table, geomean
from .storage import load_records, records_from_json, records_to_json, save_records
from .sweeps import ScalingPoint, strong_scaling
from .tables import (
    HIGH_PARALLELISM_THRESHOLD,
    LARGE_NNZ_THRESHOLD,
    index_records,
    table1_speedups,
    table2_metric_improvements,
    table3_categories,
)
from .figures import (
    fig4_pgp_vs_pg,
    fig5_per_matrix_speedups,
    fig6_performance_metrics,
    fig7_imbalance_ratio,
    fig8_speedup_vs_locality,
    fig9_nre,
)

__all__ = [
    "choose_scheduler",
    "dataset_report",
    "save_records",
    "strong_scaling",
    "ScalingPoint",
    "load_records",
    "records_to_json",
    "records_from_json",
    "dataset_rows",
    "SchedulerChoice",
    "DEFAULT_CANDIDATES",
    "Harness",
    "RunRecord",
    "MatrixContext",
    "DEFAULT_ALGORITHMS",
    "SUITE",
    "MatrixSpec",
    "FAMILIES",
    "small_suite",
    "suite_by_name",
    "format_table",
    "format_kv",
    "dump_json",
    "geomean",
    "table1_speedups",
    "table2_metric_improvements",
    "table3_categories",
    "index_records",
    "LARGE_NNZ_THRESHOLD",
    "HIGH_PARALLELISM_THRESHOLD",
    "fig4_pgp_vs_pg",
    "fig5_per_matrix_speedups",
    "fig6_performance_metrics",
    "fig7_imbalance_ratio",
    "fig8_speedup_vs_locality",
    "fig9_nre",
]
