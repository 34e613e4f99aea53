"""Per-stage inspector backend registry.

Every stage of the HDagg inspector pipeline (transitive reduction,
subtree aggregation, DAG coarsening, LBP wavefront coarsening, bin
packing, schedule expansion) is a named, swappable implementation.  A
:class:`BackendSpec` selects one *tier* per stage:

``reference``
    The literal loop oracles retained next to every fast path
    (``lbp_coarsen_reference``, ``subtree_grouping_reference``, ...).
``numpy``
    The vectorized fast paths — the default, unchanged behaviour.
``compiled``
    A C shared library (:mod:`repro.core.backends.native`) covering the
    two stages that dominate inspector time on mesh matrices,
    ``lbp`` and ``coarsen``.  When the library has not been built the
    registry falls back to ``numpy`` with a one-time warning — imports
    and schedules never depend on the extension being present.

All three tiers are **bit-identical** by contract: the same DAG and
parameters produce the same schedule down to every float in the packing
loads (enforced by the differential test suite).  The spec therefore
changes only *speed*; it still participates in cache keys and environment
fingerprints so measurements from different tiers are never mixed.

Selection sources, in precedence order: explicit ``backend=`` argument
to :func:`repro.core.hdagg.hdagg`, the ``REPRO_BACKENDS`` environment
variable, the all-``numpy`` default.  The string grammar is
``"lbp=compiled,coarsen=compiled"`` (per-stage), ``"compiled"`` /
``"all=compiled"`` (every stage), or ``"numpy"`` (explicit default).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "STAGES",
    "TIERS",
    "DEFAULT_TIER",
    "ENV_VAR",
    "BackendSpec",
    "BackendWarning",
    "available_tiers",
    "registered_tiers",
    "resolve_stage",
    "register_backend",
    "reset_fallback_warnings",
]

#: pipeline stages, in execution order; each is also the name of the pass
#: that binds it (``binpack`` runs inside the ``lbp`` pass)
STAGES = ("transitive_reduction", "aggregation", "coarsen", "lbp", "binpack", "expand")

#: implementation tiers
TIERS = ("reference", "numpy", "compiled")

DEFAULT_TIER = "numpy"

ENV_VAR = "REPRO_BACKENDS"

class BackendWarning(RuntimeWarning):
    """Raised (as a warning) when a requested tier falls back to numpy."""


def _canon_stage(name: str) -> str:
    stage = name.strip()
    if stage not in STAGES:
        raise ValueError(f"unknown inspector stage {name!r}; expected one of {STAGES}")
    return stage


def _canon_tier(name: str) -> str:
    tier = name.strip()
    if tier not in TIERS:
        raise ValueError(f"unknown backend tier {name!r}; expected one of {TIERS}")
    return tier


@dataclass(frozen=True)
class BackendSpec:
    """Immutable per-stage tier selection.

    ``entries`` holds only the non-default assignments, sorted by stage
    name — two specs selecting the same tiers always compare (and hash,
    and ``describe()``) equal regardless of how they were written.
    """

    entries: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        canon = tuple(
            sorted(
                (s, t)
                for s, t in {_canon_stage(s): _canon_tier(t) for s, t in self.entries}.items()
                if t != DEFAULT_TIER
            )
        )
        object.__setattr__(self, "entries", canon)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str | None) -> "BackendSpec":
        """Parse the CLI/env grammar; ``None``/empty means all-numpy.

        >>> BackendSpec.parse("lbp=compiled,coarsen=compiled").describe()
        'coarsen=compiled,lbp=compiled'
        >>> BackendSpec.parse("compiled").describe()
        'compiled'
        >>> BackendSpec.parse("").describe()
        'numpy'
        """
        if not text or not text.strip():
            return cls()
        text = text.strip()
        if "=" not in text and "," not in text:
            return cls(tuple((s, _canon_tier(text)) for s in STAGES))
        entries = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad backend entry {part!r}: expected 'stage=tier' or a bare tier name"
                )
            stage, tier = part.split("=", 1)
            if stage.strip() == "all":
                entries.extend((s, _canon_tier(tier)) for s in STAGES)
            else:
                entries.append((_canon_stage(stage), _canon_tier(tier)))
        return cls(tuple(entries))

    @classmethod
    def from_env(cls) -> "BackendSpec":
        """Spec selected by the ``REPRO_BACKENDS`` environment variable."""
        return cls.parse(os.environ.get(ENV_VAR))

    @classmethod
    def coerce(cls, value: "BackendSpec | str | None") -> "BackendSpec":
        """Normalise an API argument: spec, grammar string, or None (env)."""
        if value is None:
            return cls.from_env()
        if isinstance(value, BackendSpec):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"backend must be a BackendSpec, str, or None, not {type(value)!r}")

    # ------------------------------------------------------------------
    def tier(self, stage: str) -> str:
        """Requested tier for one stage (before availability fallback)."""
        stage = _canon_stage(stage)
        for s, t in self.entries:
            if s == stage:
                return t
        return DEFAULT_TIER

    def with_stage(self, stage: str, tier: str) -> "BackendSpec":
        """A copy with one stage reassigned."""
        stage = _canon_stage(stage)
        kept = tuple((s, t) for s, t in self.entries if s != stage)
        return BackendSpec(kept + ((stage, _canon_tier(tier)),))

    def describe(self) -> str:
        """Canonical string form: the inverse of :meth:`parse`.

        ``'numpy'`` when everything is default; a bare tier name when all
        stages share one non-default tier; else sorted ``stage=tier``
        entries joined by commas.
        """
        if not self.entries:
            return DEFAULT_TIER
        tiers = {t for _, t in self.entries}
        if len(self.entries) == len(STAGES) and len(tiers) == 1:
            return next(iter(tiers))
        return ",".join(f"{s}={t}" for s, t in self.entries)

    def effective(self) -> "BackendSpec":
        """The spec after availability fallback (what actually runs)."""
        spec = self
        for stage in STAGES:
            tier = self.tier(stage)
            if tier != DEFAULT_TIER and _lookup(stage, tier) is None:
                spec = spec.with_stage(stage, DEFAULT_TIER)
        return spec

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: (stage, tier) -> zero-arg loader returning the implementation callable,
#: or None when the tier cannot serve the stage right now (e.g. the
#: compiled library is absent).  Loaders are lazy to keep import cycles
#: out of ``repro.core`` (the expand stage lives in ``hdagg`` itself).
_LOADERS: Dict[Tuple[str, str], Callable[[], Callable | None]] = {}

#: resolved-callable cache; invalidated by register_backend
_RESOLVED: Dict[Tuple[str, str], Callable | None] = {}

#: (stage, tier) pairs already warned about, for one-time fallback warnings
_WARNED: set = set()


def register_backend(stage: str, tier: str, loader: Callable[[], Callable | None]) -> None:
    """Register (or replace) the loader for one (stage, tier) cell."""
    key = (_canon_stage(stage), _canon_tier(tier))
    _LOADERS[key] = loader
    _RESOLVED.pop(key, None)


def reset_fallback_warnings() -> None:
    """Forget which fallbacks have warned (tests re-arm the one-time warning)."""
    _WARNED.clear()


def _lookup(stage: str, tier: str) -> Callable | None:
    key = (stage, tier)
    if key not in _RESOLVED:
        loader = _LOADERS.get(key)
        _RESOLVED[key] = loader() if loader is not None else None
    return _RESOLVED[key]


def available_tiers(stage: str) -> Tuple[str, ...]:
    """Tiers that can currently serve ``stage`` (compiled only if built)."""
    stage = _canon_stage(stage)
    return tuple(t for t in TIERS if _lookup(stage, t) is not None)


def registered_tiers(stage: str) -> Tuple[str, ...]:
    """Tiers with a *registered loader* for ``stage``, built or not.

    Unlike :func:`available_tiers` this never imports or loads anything:
    it answers "does the registry even know this (stage, tier) cell?",
    which is what static pipeline verification needs — a pass declaring a
    tier with no loader is a wiring bug regardless of what is built on
    this machine.
    """
    stage = _canon_stage(stage)
    return tuple(t for t in TIERS if (stage, t) in _LOADERS)


def resolve_stage(spec: BackendSpec, stage: str) -> Tuple[Callable, str]:
    """Implementation for one stage under ``spec``: ``(callable, tier)``.

    A tier that cannot serve the stage (compiled library absent, or a
    stage the tier never covered) degrades to ``numpy`` and emits one
    :class:`BackendWarning` per (stage, tier) per process.
    """
    stage = _canon_stage(stage)
    tier = spec.tier(stage)
    fn = _lookup(stage, tier)
    if fn is None:
        if (stage, tier) not in _WARNED:
            _WARNED.add((stage, tier))
            warnings.warn(
                f"backend tier {tier!r} is unavailable for stage {stage!r}; "
                f"falling back to {DEFAULT_TIER!r} (build the native library with "
                f"'python -m repro.core.backends.build' for the compiled tier)",
                BackendWarning,
                stacklevel=2,
            )
        tier = DEFAULT_TIER
        fn = _lookup(stage, tier)
    if fn is None:  # pragma: no cover - numpy tier is always registered
        raise RuntimeError(f"no implementation registered for stage {stage!r}")
    return fn, tier


# ----------------------------------------------------------------------
# built-in loaders
# ----------------------------------------------------------------------
def _numpy_reduce() -> Callable:
    from ...graph.transitive_reduction import transitive_reduction_two_hop

    return transitive_reduction_two_hop


def _reference_reduce() -> Callable:
    from ...graph.transitive_reduction import transitive_reduction_reference

    return transitive_reduction_reference


def _numpy_aggregate() -> Callable:
    from ..aggregation import subtree_grouping

    return subtree_grouping


def _reference_aggregate() -> Callable:
    from ..aggregation import subtree_grouping_reference

    return subtree_grouping_reference


def _numpy_coarsen() -> Callable:
    from ...graph.coarsen import coarsen_dag

    def coarsen(g_base: Any, grouping: Any, cost: Any) -> Tuple[Any, Any]:
        return coarsen_dag(g_base, grouping), grouping.group_costs(cost)

    return coarsen


def _compiled_coarsen() -> Optional[Callable]:
    from .native import available

    if not available():
        return None
    from .compiled import coarsen_compiled

    return coarsen_compiled


def _numpy_lbp() -> Callable:
    from ..lbp import lbp_coarsen

    return lbp_coarsen


def _reference_lbp() -> Callable:
    from ..lbp import lbp_coarsen_reference

    return lbp_coarsen_reference


def _compiled_lbp() -> Optional[Callable]:
    from .native import available

    if not available():
        return None
    from .compiled import lbp_coarsen_compiled

    return lbp_coarsen_compiled


def _numpy_binpack() -> Callable:
    from ..binpack import first_fit_pack

    return first_fit_pack


def _reference_binpack() -> Callable:
    from ..binpack import first_fit_pack_reference

    return first_fit_pack_reference


def _numpy_expand() -> Callable:
    from ..hdagg import expand_lbp_to_schedule

    return expand_lbp_to_schedule


register_backend("transitive_reduction", "numpy", _numpy_reduce)
register_backend("transitive_reduction", "reference", _reference_reduce)
register_backend("aggregation", "numpy", _numpy_aggregate)
register_backend("aggregation", "reference", _reference_aggregate)
register_backend("coarsen", "numpy", _numpy_coarsen)
# the coarsen/expand "reference" tier is the numpy path itself: these stages
# never grew a separate loop oracle (their outputs are integer-exact), so
# selecting reference must not warn — it aliases numpy by design.
register_backend("coarsen", "reference", _numpy_coarsen)
register_backend("coarsen", "compiled", _compiled_coarsen)
register_backend("lbp", "numpy", _numpy_lbp)
register_backend("lbp", "reference", _reference_lbp)
register_backend("lbp", "compiled", _compiled_lbp)
register_backend("binpack", "numpy", _numpy_binpack)
register_backend("binpack", "reference", _reference_binpack)
register_backend("expand", "numpy", _numpy_expand)
register_backend("expand", "reference", _numpy_expand)
