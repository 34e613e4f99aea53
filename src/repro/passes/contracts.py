"""Typed artifacts, pipeline invariants, and per-pass contracts.

A :class:`~repro.passes.base.Pass` declares *what it consumes and what it
guarantees* instead of relying on call order alone:

``requires`` / ``produces``
    Named, typed **artifacts** — the values flowing between inspector
    stages (the dependence DAG, the reduced DAG, the subtree grouping,
    the coarsened wavefronts, the final schedule).  The catalog below is
    closed: a contract naming an unknown artifact is a construction-time
    error, so typos cannot silently satisfy the verifier.

``requires_invariants`` / ``establishes`` / ``preserves`` / ``invalidates``
    Named **invariants** — facts about the pipeline state that hold from
    the moment a pass establishes them until a pass invalidates them.
    ``preserves`` is a consistency declaration: the verifier warns when a
    pass claims to preserve an invariant that is not currently held.

:func:`repro.statan.verify_pipeline` runs a dataflow analysis over these
declarations and rejects an ill-formed pass list *before anything runs*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from difflib import get_close_matches
from typing import Mapping, Tuple

__all__ = [
    "ARTIFACTS",
    "INVARIANTS",
    "Contract",
    "ContractError",
]

#: Closed catalog of artifact names, each with a one-line description.
#: The names are the vocabulary every contract is written in.
ARTIFACTS: Mapping[str, str] = {
    "DAG": "the kernel's dependence DAG (id-topological, as built by the kernel)",
    "Cost": "per-iteration cost vector aligned with the DAG's vertex ids",
    "Cores": "physical core count p (Listing 2's num_cores())",
    "Epsilon": "load-balance threshold for PGP (Listing 2's epsilon())",
    "Backend": "tier running the compiled stages: 'compiled' or 'numpy'",
    "ReducedDAG": "DAG after two-hop transitive reduction (== DAG when disabled)",
    "Grouping": "partition of vertices into aggregation groups (step 1)",
    "CoarseDAG": "the coarsened DAG G'' with one vertex per group",
    "GroupCost": "per-group cost vector aligned with CoarseDAG vertex ids",
    "Wavefronts": "level decomposition of a DAG (level sets + pointers)",
    "CoarsenedWaves": (
        "flat LBP outcome: coarse vertices in (coarsened wavefront, component, id) "
        "order, component and wavefront pointers, wave windows, a bin per "
        "component and the (n_cw, p) bin loads"
    ),
    "LBPPartition": "per-coarsened-wavefront component lists and bin packings",
    "ETree": (
        "elimination tree of the DAG: parent pointers, leaf-up heights, "
        "subtree cost sums and subtree minima"
    ),
    "PartLabels": "acyclic partition: a dense part label per DAG vertex",
    "Schedule": "the executable schedule of levels of width-partitions",
}

#: Closed catalog of invariant names.
INVARIANTS: Mapping[str, str] = {
    "acyclic": "the active DAG has no cycles",
    "topo-ordered": "vertex ids form a topological order of the active DAG",
    "transitively-reduced": "no edge of the active DAG is implied by a two-hop path",
    "dependence-closed": "every dependence is honored by the level/sync structure",
    "vertex-cover": "the schedule covers every DAG vertex exactly once",
    "balanced-under-epsilon": "packing PGP within epsilon, or the fine-grained fallback taken",
    "input-immutable": "passes never mutate their input artifacts (lint-enforced)",
}


class ContractError(ValueError):
    """A contract names an unknown artifact or invariant."""


def _check_names(names: Tuple[str, ...], catalog: Mapping[str, str], kind: str) -> None:
    for name in names:
        if name not in catalog:
            hint = get_close_matches(name, catalog, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ContractError(
                f"unknown {kind} {name!r} (catalog: {sorted(catalog)}){suffix}"
            )


@dataclass(frozen=True)
class Contract:
    """Declared dataflow and invariant behaviour of one pass.

    All fields are tuples of catalog names; construction validates every
    name against :data:`ARTIFACTS` / :data:`INVARIANTS`.
    """

    requires: Tuple[str, ...] = field(default=())
    produces: Tuple[str, ...] = field(default=())
    requires_invariants: Tuple[str, ...] = field(default=())
    establishes: Tuple[str, ...] = field(default=())
    preserves: Tuple[str, ...] = field(default=())
    invalidates: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_names(tuple(self.requires), ARTIFACTS, "artifact")
        _check_names(tuple(self.produces), ARTIFACTS, "artifact")
        for group in (self.requires_invariants, self.establishes, self.preserves, self.invalidates):
            _check_names(tuple(group), INVARIANTS, "invariant")
        dup = set(self.establishes) & set(self.invalidates)
        if dup:
            raise ContractError(
                f"contract both establishes and invalidates {sorted(dup)}"
            )
