"""The compiled inspector stages, and the name of the tier that runs.

Every HDagg pass calls its stage function directly.  Two stages dominate
inspector time on mesh matrices, ``coarsen`` and ``lbp``; their passes
call the wrappers in :mod:`repro.core.backends.compiled`, which run the C
shared library (:mod:`repro.core.backends.native`) when it has been built
(``python -m repro.core.backends.build``) and the numpy implementation
otherwise.  Both produce the same schedule down to every float in the
packing loads (``tests/core/test_backend_differential.py``), so the
platform, not the caller, picks the faster one.

:func:`active_tier` names what runs: ``"compiled"`` when the library is
loaded, else ``"numpy"``.  The driver seeds it as the ``Backend``
artifact; it lands in ``Schedule.meta["backend"]``, ``RunRecord.backend``,
the harness's cache keys and journal fingerprint, and the benchmark
stamp, so measurements from the two tiers are never mixed.
"""

from __future__ import annotations

from .native import available

__all__ = ["BackendSpec", "active_tier"]


def active_tier() -> str:
    """``"compiled"`` when the native library is loaded, else ``"numpy"``."""
    return "compiled" if available() else "numpy"


class BackendSpec:
    """The benchmark stamp's door to :func:`active_tier`.

    ``bench/layers.py`` stamps each run with
    ``BackendSpec.coerce(None).effective().describe()``; that chain is
    all this class provides.
    """

    @classmethod
    def coerce(cls, value: None = None) -> "BackendSpec":
        return cls()

    def effective(self) -> "BackendSpec":
        return self

    def describe(self) -> str:
        return active_tier()
