"""``repro.statan``: static analysis for this repo's own invariants.

Two prongs over one diagnostics model:

* :func:`verify_pipeline` — dataflow analysis over declared pass
  contracts (:mod:`repro.passes`): artifact availability, invariant
  propagation, dead artifacts, outputs produced.  Rejects
  ill-formed pipelines with structured diagnostics before anything runs.
* :func:`run_lint` — an AST rule engine (``hdagg-bench lint``) enforcing
  repo disciplines generic linters cannot see: registered fault sites,
  observability guards, bit-identity hygiene, frozen record schemas,
  immutable pass inputs.

Both share :class:`Diagnostic` (rule id, message, location, fix hint),
inline ``statan: ignore[RULE]`` suppression, and a fingerprint baseline.
"""

from .diagnostics import Baseline, Diagnostic, render_json, render_text
from .engine import AstRule, ModuleUnit, ProjectRule, run_lint
from .rules import ALL_RULES, RUNRECORD_REQUIRED_FIELDS
from .verify import assert_valid, verify_pipeline, verify_registered_groups

__all__ = [
    "Diagnostic",
    "Baseline",
    "render_text",
    "render_json",
    "AstRule",
    "ProjectRule",
    "ModuleUnit",
    "run_lint",
    "ALL_RULES",
    "RUNRECORD_REQUIRED_FIELDS",
    "verify_pipeline",
    "verify_registered_groups",
    "assert_valid",
]
