"""AST lint framework for repo-invariant rules (the ``L0xx`` prong).

Generic linters cannot see this repo's disciplines — that every
``fault_point`` site is registered, that ambient observability state is
always guarded, that pass bodies never mutate their inputs.  This engine
runs *project rules* over the source tree:

* :class:`AstRule` — per-module checks over a parsed AST (with parent
  links and raw source available);
* :class:`ProjectRule` — whole-repo checks that introspect live
  registries (dataclass fields) instead of parsing text.

Suppression is explicit and auditable: ``# statan: ignore[L003]`` on the
flagged line silences exactly that rule there (rule L008 polices the
suppression syntax itself), and a JSON baseline file can grandfather
findings by fingerprint — new violations always fail.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic

__all__ = [
    "ModuleUnit",
    "AstRule",
    "ProjectRule",
    "iter_source_files",
    "run_lint",
    "suppressed_rules",
]

#: directories scanned by default, relative to the repo root
DEFAULT_SCAN_ROOTS = ("src/repro",)

_SUPPRESS_RE = re.compile(r"#\s*statan:\s*ignore\[([A-Za-z0-9_,\s]*)\]")
_SUPPRESS_ANY_RE = re.compile(r"#\s*statan:\s*ignore")


@dataclass
class ModuleUnit:
    """One parsed module handed to every in-scope AST rule."""

    path: str  # repo-relative, forward slashes
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    _parents: Dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, root: Path, file: Path) -> "ModuleUnit":
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
        unit = cls(
            path=file.relative_to(root).as_posix(),
            tree=tree,
            source=source,
            lines=source.splitlines(),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                unit._parents[id(child)] = parent
        return unit

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional["ast.FunctionDef | ast.AsyncFunctionDef"]:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def diagnostic(
        self, rule: "AstRule", node: ast.AST, message: str, hint: Optional[str] = None
    ) -> Diagnostic:
        return Diagnostic(
            rule=rule.id,
            message=message,
            severity=rule.severity,
            path=self.path,
            line=getattr(node, "lineno", None),
            hint=hint if hint is not None else rule.hint,
        )


class AstRule:
    """Base class for per-module AST rules.

    Subclasses set ``id``/``description``/``scope`` and implement
    :meth:`check`.  ``scope`` is a tuple of repo-relative path prefixes;
    empty means every scanned file.  ``exclude`` prefixes are removed
    from the scope (e.g. the observability package itself is exempt from
    the obs-guard rule).
    """

    id: str = ""
    description: str = ""
    scope: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    severity: str = "error"
    hint: Optional[str] = None

    def applies_to(self, path: str) -> bool:
        if any(path.startswith(prefix) for prefix in self.exclude):
            return False
        return not self.scope or any(path.startswith(prefix) for prefix in self.scope)

    def check(self, unit: ModuleUnit) -> Iterator[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-repo rules that introspect live objects."""

    id: str = ""
    description: str = ""
    severity: str = "error"

    def check_project(self, root: Path) -> Iterator[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


def iter_source_files(root: Path, paths: Optional[Sequence[str]] = None) -> List[Path]:
    """Python files to lint: explicit ``paths`` or the default scan roots."""
    targets = [root / p for p in (paths or DEFAULT_SCAN_ROOTS)]
    files: List[Path] = []
    for target in targets:
        if target.is_file():
            files.append(target)
        else:
            files.extend(sorted(target.rglob("*.py")))
    return files


def suppressed_rules(line: str) -> Optional[set]:
    """Rule ids suppressed by an inline marker on ``line`` (None = no marker)."""
    m = _SUPPRESS_RE.search(line)
    if m is None:
        return None
    return {part.strip() for part in m.group(1).split(",") if part.strip()}


def _is_suppressed(d: Diagnostic, units: Dict[str, ModuleUnit]) -> bool:
    if d.path is None or d.line is None:
        return False
    unit = units.get(d.path)
    if unit is None or not (1 <= d.line <= len(unit.lines)):
        return False
    rules = suppressed_rules(unit.lines[d.line - 1])
    return rules is not None and d.rule in rules


def run_lint(
    root: "str | Path",
    *,
    rules: Optional[Iterable[object]] = None,
    rule_ids: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Run the rule set over the tree rooted at ``root``.

    ``rules`` defaults to the full project rule set
    (:data:`repro.statan.rules.ALL_RULES`); ``rule_ids`` filters it.
    Inline-suppressed findings are dropped here; baseline filtering is
    the caller's concern (the CLI layers it on top).
    """
    from .rules import ALL_RULES

    root = Path(root)
    active = list(rules) if rules is not None else list(ALL_RULES)
    if rule_ids is not None:
        wanted = set(rule_ids)
        unknown = wanted - {r.id for r in active}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        active = [r for r in active if r.id in wanted]

    units: Dict[str, ModuleUnit] = {}
    diagnostics: List[Diagnostic] = []
    for file in iter_source_files(root, paths):
        try:
            unit = ModuleUnit.parse(root, file)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(
                    rule="E000",
                    message=f"syntax error: {exc.msg}",
                    path=file.relative_to(root).as_posix(),
                    line=exc.lineno,
                    hint="fix the parse error; no rules ran on this file",
                )
            )
            continue
        units[unit.path] = unit
        for rule in active:
            if isinstance(rule, AstRule) and rule.applies_to(unit.path):
                diagnostics.extend(rule.check(unit))
    for rule in active:
        if isinstance(rule, ProjectRule):
            diagnostics.extend(rule.check_project(root))
    kept = [d for d in diagnostics if not _is_suppressed(d, units)]
    kept.sort(key=lambda d: (d.path or "", d.line or 0, d.rule))
    return kept
