"""Shared diagnostics model for both statan prongs.

The pipeline verifier (``SP0xx`` rules) and the repo lint engine
(``L0xx`` rules) emit the same :class:`Diagnostic` shape: a stable rule
id, a one-line message, a location (file/line for lint, group/pass for
verification), and a fix hint.  One model means one rendering path, one
JSON shape, and one suppression/baseline mechanism.

Baselines hold *fingerprints* — location-normalised digests that survive
unrelated line-number drift — so a rule can be introduced against an
imperfect repo without drowning CI, while every new violation still
fails.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "Baseline",
    "render_text",
    "render_json",
]

#: ``error`` fails the gate; ``warning`` only fails under ``--strict``
SEVERITIES = ("error", "warning")

_FINGERPRINT_VERSION = b"statan-fingerprint-v1\0"


@dataclass(frozen=True)
class Diagnostic:
    """One finding, from either prong.

    ``rule`` is the stable id (``"SP001"``, ``"L003"``).  Lint findings
    carry ``path``/``line``; pipeline findings carry ``group`` and
    usually ``pass_name``.  ``hint`` is the actionable fix suggestion
    the ISSUE requires of every structured diagnostic.
    """

    rule: str
    message: str
    severity: str = "error"
    path: Optional[str] = None
    line: Optional[int] = None
    group: Optional[str] = None
    pass_name: Optional[str] = None
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    @property
    def where(self) -> str:
        """Human location: ``file:line`` for lint, ``group/pass`` for verify."""
        if self.path is not None:
            return f"{self.path}:{self.line}" if self.line is not None else self.path
        if self.group is not None:
            return (
                f"{self.group}/{self.pass_name}"
                if self.pass_name is not None
                else self.group
            )
        return "<project>"

    def fingerprint(self) -> str:
        """Location-normalised digest for baseline matching.

        Deliberately excludes the line number: inserting code above a
        baselined finding must not resurrect it.  Includes the message,
        so a finding that *changes* (new artifact name, new site) reads
        as new.
        """
        h = sha256(_FINGERPRINT_VERSION)
        payload = (self.rule, self.path or "", self.group or "", self.pass_name or "", self.message)
        h.update(repr(payload).encode("utf-8"))
        return h.hexdigest()

    def render(self) -> str:
        text = f"{self.where}: {self.severity}[{self.rule}]: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        blob = asdict(self)
        blob["where"] = self.where
        blob["fingerprint"] = self.fingerprint()
        return blob


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """All diagnostics, one block each, plus a one-line tally."""
    lines = [d.render() for d in diagnostics]
    n_err = sum(1 for d in diagnostics if d.severity == "error")
    n_warn = len(diagnostics) - n_err
    lines.append(f"{n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    """All diagnostics plus error and warning tallies as one JSON document."""
    return json.dumps(
        {
            "diagnostics": [d.to_json() for d in diagnostics],
            "errors": sum(1 for d in diagnostics if d.severity == "error"),
            "warnings": sum(1 for d in diagnostics if d.severity == "warning"),
        },
        indent=2,
        sort_keys=True,
    )


class Baseline:
    """A set of accepted fingerprints persisted as JSON.

    ``filter(diags)`` drops findings already in the baseline and returns
    the rest; ``record(diags)`` replaces the accepted set (what
    ``hdagg-bench lint --write-baseline`` does).
    """

    def __init__(self, fingerprints: Iterable[str] = ()) -> None:
        self.fingerprints = set(fingerprints)

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        p = Path(path)
        if not p.exists():
            return cls()
        blob = json.loads(p.read_text())
        return cls(blob.get("fingerprints", []))

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(
            json.dumps({"fingerprints": sorted(self.fingerprints)}, indent=2) + "\n"
        )

    def filter(
        self, diagnostics: Sequence[Diagnostic]
    ) -> Tuple[List[Diagnostic], List[Diagnostic]]:
        """Split into (new, baselined) by fingerprint membership."""
        new: List[Diagnostic] = []
        old: List[Diagnostic] = []
        for d in diagnostics:
            (old if d.fingerprint() in self.fingerprints else new).append(d)
        return new, old

    def record(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.fingerprints = {d.fingerprint() for d in diagnostics}
