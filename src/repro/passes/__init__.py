"""Composable inspector pass pipeline (ROADMAP item 5).

Every inspector stage is a :class:`Pass` with a declared
:class:`Contract` — the typed artifacts it consumes and produces, and the
pipeline invariants it requires, establishes, preserves, or invalidates.
A scheduler is a :class:`PassGroup`: an ordered pass list plus the
driver-supplied inputs, assumptions and options.  ``PASS_GROUPS``
registers one group per scheduler and is the only scheduler registry;
:func:`run_scheduler` is the one driver every scheduler runs through.
:func:`repro.statan.verify_pipeline` proves a group well-formed before
anything runs, and :func:`plan_repair` derives the incremental-repair
boundary from the contracts alone.
"""

from .base import MissingArtifactError, Pass, PassContext, PassGroup
from .contracts import ARTIFACTS, INVARIANTS, Contract, ContractError
from .executor import PipelineExecutionError, run_group, run_scheduler, seed_context
from .hdagg import build_hdagg_group
from .incremental import RepairPlan, plan_repair
from .registry import PASS_GROUPS, SCHEDULERS, get_pass_group, register_pass_group

__all__ = [
    "ARTIFACTS",
    "INVARIANTS",
    "Contract",
    "ContractError",
    "MissingArtifactError",
    "Pass",
    "PassContext",
    "PassGroup",
    "PipelineExecutionError",
    "run_group",
    "run_scheduler",
    "seed_context",
    "build_hdagg_group",
    "RepairPlan",
    "plan_repair",
    "PASS_GROUPS",
    "SCHEDULERS",
    "get_pass_group",
    "register_pass_group",
]
