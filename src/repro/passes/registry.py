"""The scheduler registry: one pass group per scheduler name.

``PASS_GROUPS`` is the only place a scheduler is defined.
:data:`SCHEDULERS` is a read-only view of it that maps each name to a
callable ``(g, cost, p=None, epsilon=None, *, backend=None, **options)
-> Schedule`` running the group through the one driver,
:func:`~repro.passes.executor.run_scheduler`.  CI verifies each
registered group with :func:`repro.statan.verify_pipeline` before any of
them run, so an ill-formed recombination (a successor scheduler wired
from existing passes, a compiled stage dropped in) is a structured
diagnostic, not a runtime crash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Mapping, Optional

from .base import PassGroup
from .baselines import (
    build_coarsen_k_group,
    build_dagp_group,
    build_lbc_group,
    build_mkl_group,
    build_serial_group,
    build_spmp_group,
    build_wavefront_group,
)
from .executor import run_scheduler
from .hdagg import build_hdagg_group

__all__ = ["PASS_GROUPS", "SCHEDULERS", "register_pass_group", "get_pass_group"]

#: scheduler name -> declarative pass group
PASS_GROUPS: Dict[str, PassGroup] = {}


def register_pass_group(group: PassGroup, *, name: Optional[str] = None) -> PassGroup:
    """Add (or replace) a group in the registry under ``name`` or its own."""
    PASS_GROUPS[name or group.name] = group
    return group


def get_pass_group(name: str) -> PassGroup:
    """Look up a registered group; raises ``KeyError`` with choices listed."""
    try:
        return PASS_GROUPS[name]
    except KeyError:
        raise KeyError(
            f"unknown pass group {name!r}; available: {sorted(PASS_GROUPS)}"
        ) from None


class _Schedulers(Mapping[str, Callable[..., Any]]):
    """Name -> schedule builder, derived from :data:`PASS_GROUPS`."""

    def __init__(self) -> None:
        self._builders: Dict[str, Callable[..., Any]] = {}

    def __getitem__(self, name: str) -> Callable[..., Any]:
        group = get_pass_group(name)
        if name not in self._builders:

            def build(g: Any, cost: Any, p: Optional[int] = None,
                      epsilon: Optional[float] = None, **options: Any) -> Any:
                return run_scheduler(name, g, cost, p, epsilon, **options)["Schedule"]

            build.__name__ = build.__qualname__ = name
            build.__doc__ = group.description
            self._builders[name] = build
        return self._builders[name]

    def __iter__(self) -> Iterator[str]:
        return iter(PASS_GROUPS)

    def __len__(self) -> int:
        return len(PASS_GROUPS)


#: scheduler name -> ``builder(g, cost, p=None, epsilon=None, **options)``
SCHEDULERS: Mapping[str, Callable[..., Any]] = _Schedulers()


register_pass_group(build_hdagg_group())
register_pass_group(build_wavefront_group())
register_pass_group(build_spmp_group())
register_pass_group(build_mkl_group())
register_pass_group(build_coarsen_k_group())
register_pass_group(build_serial_group())
register_pass_group(build_lbc_group())
register_pass_group(build_dagp_group())
