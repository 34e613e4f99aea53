"""HDagg core: the paper's contribution (Algorithm 1) and its data types."""

from .aggregation import aggregate_densely_connected, subtree_grouping
from .analysis import level_table, schedule_report, utilization_chart
from .backends import BackendSpec, resolve_stage
from .binpack import BinPacking, first_fit_pack
from .hdagg import expand_lbp_to_schedule, hdagg
from .incremental import (
    InspectionArtifacts,
    PatternDelta,
    RepairResult,
    diff_dag,
    family_key,
    inspect_with_artifacts,
    repair_schedule,
    repairable,
)
from .inspector import HDaggInspector
from .lbp import CoarsenedWavefront, LBPDecision, LBPResult, lbp_coarsen
from .pgp import DEFAULT_EPSILON, accumulated_pgp, pgp, pgp_worst_case
from .schedule import (
    DependenceWitness,
    Schedule,
    ScheduleError,
    WidthPartition,
    dependence_witnesses,
)
from .schedule_cache import CacheStats, ScheduleCache, schedule_key
from .verify import VerificationReport, verify_schedule

__all__ = [
    "hdagg",
    "HDaggInspector",
    "level_table",
    "schedule_report",
    "utilization_chart",
    "expand_lbp_to_schedule",
    "aggregate_densely_connected",
    "subtree_grouping",
    "lbp_coarsen",
    "LBPResult",
    "LBPDecision",
    "CoarsenedWavefront",
    "first_fit_pack",
    "BinPacking",
    "pgp",
    "pgp_worst_case",
    "accumulated_pgp",
    "DEFAULT_EPSILON",
    "Schedule",
    "ScheduleError",
    "DependenceWitness",
    "dependence_witnesses",
    "ScheduleCache",
    "CacheStats",
    "schedule_key",
    "BackendSpec",
    "resolve_stage",
    "PatternDelta",
    "diff_dag",
    "InspectionArtifacts",
    "inspect_with_artifacts",
    "RepairResult",
    "repair_schedule",
    "repairable",
    "family_key",
    "verify_schedule",
    "VerificationReport",
    "WidthPartition",
]
