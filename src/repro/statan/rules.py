"""The project's lint rules (``L001``–``L009``).

Each rule machine-checks one discipline the repo's docs state in prose.
The rules are deliberately conservative: they flag the idioms the
codebase actually uses and rely on explicit ``statan: ignore[RULE]``
comment markers for the rare justified exception, which keeps every
exception auditable in the diff.

======  ==============================================================
L001    ``fault_point`` call sites must use a registered site name
L002    every backend registry stage must expose reference and numpy
L003    ambient observability state is used only behind ``.enabled``
L004    no float reductions over unordered containers in ``repro.core``
L005    no wall-clock or unseeded RNG in inspector code (core/graph)
L006    ``RunRecord``'s public schema is frozen; new fields need defaults
L007    pass bodies never mutate artifacts read from the context
L008    suppression markers must name rule ids (no blanket ignores)
L009    registry metric names come from the closed telemetry catalog
======  ==============================================================
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .engine import AstRule, ModuleUnit, ProjectRule, _SUPPRESS_ANY_RE, suppressed_rules

__all__ = ["ALL_RULES", "RUNRECORD_REQUIRED_FIELDS"]

#: RunRecord's frozen public schema: the positional (default-less) fields.
#: Adding a field here is an API break for every stored record; new fields
#: must be *dormant* (carry a default) so old blobs keep loading — which is
#: exactly what rule L006 enforces.
RUNRECORD_REQUIRED_FIELDS: Tuple[str, ...] = (
    "matrix", "family", "kernel", "algorithm", "machine",
    "n", "nnz", "n_wavefronts", "average_parallelism", "nnz_per_wavefront",
    "speedup", "makespan_cycles", "serial_cycles",
    "avg_memory_access_latency", "hit_rate", "potential_gain", "pgp",
    "equivalent_syncs", "n_barriers", "n_p2p_syncs", "imbalance_ratio",
    "inspector_cycles", "nre", "schedule_levels", "schedule_partitions",
    "fine_grained", "inspector_seconds",
)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


class FaultSiteRegistered(AstRule):
    """L001: ``fault_point(site, ...)`` sites must exist in FAULT_SITES."""

    id = "L001"
    description = "fault_point call sites must use a registered site name"
    scope = ("src/repro",)
    exclude = ("src/repro/resilience/faults.py",)
    hint = "register the site in repro.resilience.faults.FAULT_SITES"

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        from ..resilience.faults import FAULT_SITES

        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None or chain[-1] != "fault_point":
                continue
            if not node.args:
                yield unit.diagnostic(self, node, "fault_point called without a site name")
                continue
            site = node.args[0]
            if not isinstance(site, ast.Constant) or not isinstance(site.value, str):
                yield unit.diagnostic(
                    self,
                    node,
                    "fault_point site must be a string literal "
                    "(dynamic sites defeat the registry and the chaos sweep)",
                )
            elif site.value not in FAULT_SITES:
                yield unit.diagnostic(
                    self,
                    node,
                    f"fault_point site {site.value!r} is not registered in FAULT_SITES",
                )


class BackendOracleCoverage(ProjectRule):
    """L002: every registry stage carries reference and numpy loaders."""

    id = "L002"
    description = "backend stages must expose reference and numpy tiers"

    def check_project(self, root: Path) -> Iterator[Diagnostic]:
        from ..core.backends import STAGES, registered_tiers

        for stage in STAGES:
            tiers = registered_tiers(stage)
            for required in ("reference", "numpy"):
                if required not in tiers:
                    yield Diagnostic(
                        rule=self.id,
                        message=f"backend stage {stage!r} has no {required!r} tier "
                        f"(registered: {list(tiers)})",
                        path="src/repro/core/backends/__init__.py",
                        hint="every stage keeps a loop oracle next to its fast path; "
                        f"register_backend({stage!r}, {required!r}, loader)",
                    )


class ObservabilityGuard(AstRule):
    """L003: STATE.tracer / STATE.registry only behind an ``.enabled`` check.

    Accepts the repo's three guard shapes: an ancestor ``if``/ternary
    whose test mentions ``<state>.enabled``, or an earlier early-exit
    statement in the same function (``if not <state>.enabled: return``).
    """

    id = "L003"
    description = "ambient observability state must be guarded by .enabled"
    scope = ("src/repro",)
    exclude = ("src/repro/observability",)
    hint = (
        "wrap the use in `if STATE.enabled:` (or early-return when disabled) "
        "so disabled-mode overhead stays at one attribute read"
    )

    _GUARDED_ATTRS = ("tracer", "registry")

    def _state_aliases(self, unit: ModuleUnit) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("observability.state") or node.module.endswith("observability")
            ):
                for a in node.names:
                    if a.name == "STATE":
                        aliases.add(a.asname or a.name)
        return aliases

    def _test_mentions_enabled(self, test: ast.AST, aliases: Set[str]) -> bool:
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                return True
        return False

    def _guarded(self, unit: ModuleUnit, use: ast.AST, aliases: Set[str]) -> bool:
        for anc in unit.ancestors(use):
            if isinstance(anc, (ast.If, ast.IfExp)) and self._test_mentions_enabled(
                anc.test, aliases
            ):
                return True
        fn = unit.enclosing_function(use)
        if fn is None:
            return False
        use_line = getattr(use, "lineno", 0)
        for stmt in fn.body:
            if getattr(stmt, "lineno", 0) >= use_line:
                break
            if (
                isinstance(stmt, ast.If)
                and self._test_mentions_enabled(stmt.test, aliases)
                and stmt.body
                and isinstance(stmt.body[-1], (ast.Return, ast.Raise, ast.Continue))
            ):
                return True
        return False

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        aliases = self._state_aliases(unit)
        if not aliases:
            return
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._GUARDED_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                if not self._guarded(unit, node, aliases):
                    yield unit.diagnostic(
                        self,
                        node,
                        f"{node.value.id}.{node.attr} used without an .enabled guard",
                    )


class NoUnorderedFloatReduction(AstRule):
    """L004: ``sum``/``fsum`` over sets is order-nondeterministic for floats."""

    id = "L004"
    description = "no float reductions over unordered containers in repro.core"
    scope = ("src/repro/core",)
    hint = (
        "iterate a sorted/ordered sequence instead; float addition is not "
        "associative, so set order changes the schedule bit pattern"
    )

    _REDUCERS = {"sum", "fsum"}
    _SET_CALLS = {"set", "frozenset"}

    def _is_unordered(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return chain is not None and chain[-1] in self._SET_CALLS
        return False

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            chain = _attr_chain(node.func)
            if chain is None or chain[-1] not in self._REDUCERS:
                continue
            arg = node.args[0]
            bad = self._is_unordered(arg)
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                bad = any(self._is_unordered(gen.iter) for gen in arg.generators)
            if bad:
                yield unit.diagnostic(
                    self,
                    node,
                    f"{chain[-1]}() over an unordered container in bit-identical core code",
                )


class NoWallClockOrUnseededRng(AstRule):
    """L005: inspector code uses injected clocks/seeds only.

    ``time.time()`` (non-monotonic wall clock) and global/unseeded RNG
    state make inspection irreproducible; ``time.perf_counter`` for
    telemetry and explicitly seeded ``default_rng(seed)`` are fine.
    """

    id = "L005"
    description = "no wall clock or unseeded RNG in inspector code"
    scope = ("src/repro/core", "src/repro/graph")
    hint = (
        "use time.perf_counter for telemetry and np.random.default_rng(seed) "
        "with an explicit seed for randomness"
    )

    _RNG_FACTORY_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            if chain == ["time", "time"]:
                yield unit.diagnostic(self, node, "time.time() wall clock in inspector code")
            elif len(chain) >= 2 and chain[0] == "random":
                yield unit.diagnostic(
                    self, node, f"global stdlib RNG call random.{chain[-1]}()"
                )
            elif "random" in chain[:-1] and chain[0] in {"np", "numpy"}:
                if chain[-1] not in self._RNG_FACTORY_OK:
                    yield unit.diagnostic(
                        self,
                        node,
                        f"global numpy RNG call {'.'.join(chain)}()",
                    )
                elif chain[-1] == "default_rng" and not node.args:
                    yield unit.diagnostic(
                        self, node, "default_rng() without an explicit seed"
                    )


class RunRecordDormantDefaults(ProjectRule):
    """L006: RunRecord's required-field schema is pinned; growth is dormant."""

    id = "L006"
    description = "RunRecord public fields keep dormant defaults"

    def check_project(self, root: Path) -> Iterator[Diagnostic]:
        import dataclasses

        from ..suite.harness import RunRecord

        required = tuple(
            f.name
            for f in dataclasses.fields(RunRecord)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        pinned = RUNRECORD_REQUIRED_FIELDS
        path = "src/repro/suite/harness.py"
        for name in required:
            if name not in pinned:
                yield Diagnostic(
                    rule=self.id,
                    message=f"new RunRecord field {name!r} has no default",
                    path=path,
                    hint="give new fields a dormant default so previously stored "
                    "records (and downstream readers) keep loading",
                )
        for name in pinned:
            if name not in required:
                yield Diagnostic(
                    rule=self.id,
                    message=f"pinned RunRecord field {name!r} was removed or defaulted",
                    path=path,
                    hint="the public record schema is frozen; update "
                    "RUNRECORD_REQUIRED_FIELDS only with a deliberate schema bump",
                )


class NoPassInputMutation(AstRule):
    """L007: pass bodies return new products; context reads are immutable.

    Tracks names bound from ``ctx[...]``/``ctx.get(...)`` inside each
    function and flags attribute/subscript stores through them (or
    directly through a ``ctx[...]`` read).
    """

    id = "L007"
    description = "pass implementations must not mutate input artifacts"
    scope = ("src/repro/passes",)
    hint = (
        "build and return a new product instead; executor and repair "
        "planning both assume artifacts are immutable once published"
    )

    def _is_ctx_read(self, node: ast.AST, ctx_names: Set[str]) -> bool:
        if isinstance(node, ast.Subscript):
            return isinstance(node.value, ast.Name) and node.value.id in ctx_names
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            return (
                chain is not None
                and len(chain) == 2
                and chain[0] in ctx_names
                and chain[1] == "get"
            )
        return False

    def _root_name(self, node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        for fn in ast.walk(unit.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            ctx_names = {p for p in params if p == "ctx"}
            if not ctx_names:
                continue
            artifact_aliases: Set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    value_reads = self._is_ctx_read(node.value, ctx_names)
                    if isinstance(node.value, ast.Tuple):
                        value_reads = any(
                            self._is_ctx_read(el, ctx_names) for el in node.value.elts
                        )
                    if value_reads:
                        for tgt in node.targets:
                            names = tgt.elts if isinstance(tgt, ast.Tuple) else [tgt]
                            for n in names:
                                if isinstance(n, ast.Name):
                                    artifact_aliases.add(n.id)
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for tgt in targets:
                        if not isinstance(tgt, (ast.Attribute, ast.Subscript)):
                            continue
                        if self._is_ctx_read(tgt.value, ctx_names) or (
                            self._root_name(tgt) in artifact_aliases
                        ):
                            yield unit.diagnostic(
                                self,
                                node,
                                "store into an artifact read from the pass context",
                            )


class SuppressionHygiene(AstRule):
    """L008: every ``statan: ignore`` names at least one valid rule id."""

    id = "L008"
    description = "suppression markers must name rule ids"
    scope = ()
    hint = "name the rule inside brackets; blanket ignores hide future findings"

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        known = {r.id for r in ALL_RULES} | {"SP%03d" % i for i in range(1, 9)}
        for lineno, line in enumerate(unit.lines, start=1):
            if not _SUPPRESS_ANY_RE.search(line):
                continue
            rules = suppressed_rules(line)
            if rules is None or not rules:
                yield Diagnostic(
                    rule=self.id,
                    message="blanket `statan: ignore` without rule ids",
                    severity=self.severity,
                    path=unit.path,
                    line=lineno,
                    hint=self.hint,
                )
            else:
                for rid in sorted(rules - known):
                    yield Diagnostic(
                        rule=self.id,
                        message=f"suppression names unknown rule {rid!r}",
                        severity=self.severity,
                        path=unit.path,
                        line=lineno,
                        hint=self.hint,
                    )


class MetricNameInCatalog(AstRule):
    """L009: registry metric names come from the closed telemetry catalog.

    ``<registry>.counter/gauge/histogram(name, ...)`` call sites are the
    write side of the metric contract DESIGN.md §10 pins: every name an
    exporter, report, or test might read is declared in
    :func:`repro.observability.telemetry.metric_catalog`.  String
    literals are checked exactly; f-strings must open with a literal
    prefix from one of the registered open families
    (``FSTRING_NAME_PREFIXES`` / ``METRIC_NAME_PREFIXES``); fully
    dynamic names are left to the runtime drift check
    (:func:`~repro.observability.telemetry.catalog_violations`), which a
    tier-1 test runs over the registry of an observed, store-backed run.
    """

    id = "L009"
    description = "registry metric names must be declared in the telemetry catalog"
    scope = ("src/repro",)
    exclude = ("src/repro/observability/metrics.py",)
    hint = (
        "declare the name in repro.observability.telemetry.metric_catalog() "
        "(or register its family prefix in FSTRING_NAME_PREFIXES) so the "
        "exported metric set stays closed and documented"
    )

    _FACTORIES = {"counter", "gauge", "histogram"}

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:
        from ..observability.telemetry import (
            FSTRING_NAME_PREFIXES,
            METRIC_NAME_PREFIXES,
            metric_catalog,
        )

        catalog = metric_catalog()
        open_prefixes = tuple(METRIC_NAME_PREFIXES)
        fstring_prefixes = tuple(FSTRING_NAME_PREFIXES) + open_prefixes
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            chain = _attr_chain(node.func)
            if chain is None or len(chain) < 2 or chain[-1] not in self._FACTORIES:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
                if name not in catalog and not name.startswith(open_prefixes):
                    yield unit.diagnostic(
                        self,
                        node,
                        f"metric {name!r} is not declared in metric_catalog()",
                    )
            elif isinstance(arg, ast.JoinedStr):
                head = arg.values[0] if arg.values else None
                literal = (
                    head.value
                    if isinstance(head, ast.Constant) and isinstance(head.value, str)
                    else ""
                )
                if not literal or not literal.startswith(fstring_prefixes):
                    yield unit.diagnostic(
                        self,
                        node,
                        "f-string metric name does not open with a registered "
                        f"family prefix (literal head {literal!r})",
                    )


#: the full rule set, id order
ALL_RULES: Tuple[object, ...] = (
    FaultSiteRegistered(),
    BackendOracleCoverage(),
    ObservabilityGuard(),
    NoUnorderedFloatReduction(),
    NoWallClockOrUnseededRng(),
    RunRecordDormantDefaults(),
    NoPassInputMutation(),
    SuppressionHygiene(),
    MetricNameInCatalog(),
)
