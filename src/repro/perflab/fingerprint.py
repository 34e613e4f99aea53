"""Environment fingerprinting: *what machine produced this number?*

Every ``bench/run.py`` result is stamped with an
:class:`EnvironmentFingerprint` so comparisons never silently mix
machines.  The fingerprint splits into two parts:

* the **environment key** — hardware and library identity (CPU model,
  core count, frequency governor, python/numpy/scipy/BLAS, OS) — hashed
  into ``digest``.  Two results are comparable iff their digests match;
  ``hdagg-bench perf compare`` refuses runs whose digests differ;
* **provenance** — per-run facts that legitimately change between runs of
  the same environment (git SHA, armed fault plans, the ambient
  observability switch).  These are stamped alongside but excluded from
  the digest, because a timing shift they cause is exactly what a
  comparison exists to detect, not to key away.

Collection never raises: every probe degrades to ``""`` on platforms
without the corresponding source (no ``/proc/cpuinfo``, no git checkout,
no scipy), so the digest stays stable and meaningful on what *was*
readable.
"""

from __future__ import annotations

import os
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from typing import Dict, Optional

__all__ = [
    "PERF_SCHEMA_VERSION",
    "EnvironmentFingerprint",
    "collect_fingerprint",
    "cpu_model",
    "cpu_governor",
    "blas_backend",
    "git_sha",
]

#: Schema version stamped into the ``benchmarks/output`` JSON payloads and
#: their text footers.  Version 1 was the ``BENCH_inspector.json`` layout
#: without a fingerprint; bump this when the stamped layout changes.
PERF_SCHEMA_VERSION = 2


def cpu_model() -> str:
    """CPU model string (``/proc/cpuinfo`` on Linux, else platform API)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cpu_governor() -> str:
    """Frequency governor of cpu0 (empty when sysfs does not expose it)."""
    path = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def blas_backend() -> str:
    """Best-effort name of the BLAS numpy links against."""
    try:
        import numpy as np

        cfg = np.show_config(mode="dicts")  # numpy >= 1.26
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        version = blas.get("version", "")
        return f"{name} {version}".strip()
    except Exception:
        pass
    try:  # pragma: no cover - legacy numpy fallback
        from numpy import __config__ as npcfg

        for key in ("blas_ilp64_opt_info", "blas_opt_info", "blas_info"):
            info = getattr(npcfg, key, None)
            if info:
                libs = info.get("libraries")
                if libs:
                    return ",".join(libs)
    except Exception:
        pass
    return ""


def git_sha(cwd: Optional[str] = None) -> str:
    """Short git SHA of the working tree (empty outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


@dataclass(frozen=True)
class EnvironmentFingerprint:
    """Machine + library identity, with per-run provenance alongside.

    ``digest`` hashes only the environment-key fields; provenance fields
    (``git_sha``, ``observability_enabled``, ``faults_armed``) ride along
    in serialized form but never change the key.
    """

    # --- environment key (hashed into the digest) ---------------------
    cpu_model: str
    cpu_count: int
    governor: str
    os: str
    python: str
    numpy: str
    scipy: str
    blas: str
    #: tier that ran the inspector's compiled stages
    #: (:func:`repro.core.backends.active_tier`: ``"compiled"`` or
    #: ``"numpy"``).  Part of the environment key: compiled- and
    #: numpy-tier timings must never be compared as if one set-up produced
    #: both.  Empty (the default) is excluded from the digest payload, so
    #: tier-agnostic fingerprints keep the digest of the key fields alone.
    backend: str = ""
    # --- provenance (stamped, not hashed) ------------------------------
    git_sha: str = ""
    observability_enabled: bool = False
    faults_armed: bool = False
    extra: Dict[str, str] = field(default_factory=dict)

    _KEY_FIELDS = (
        "cpu_model",
        "cpu_count",
        "governor",
        "os",
        "python",
        "numpy",
        "scipy",
        "blas",
    )

    @property
    def digest(self) -> str:
        """Short stable hash of the environment-key fields."""
        parts = tuple(getattr(self, f) for f in self._KEY_FIELDS)
        if self.backend:
            parts = parts + (self.backend,)
        payload = repr(parts)
        return sha256(payload.encode("utf-8")).hexdigest()[:12]

    def as_dict(self) -> dict:
        """JSON-ready form, digest included for self-describing files."""
        out = asdict(self)
        out["digest"] = self.digest
        return out

    @classmethod
    def from_dict(cls, blob: dict) -> "EnvironmentFingerprint":
        """Inverse of :meth:`as_dict` (ignores the stored digest)."""
        data = {k: v for k, v in blob.items() if k != "digest"}
        return cls(**data)

    def describe(self) -> str:
        """One-line human summary for CLI headers."""
        return (
            f"{self.cpu_model or 'unknown cpu'} x{self.cpu_count}"
            f"{' (' + self.governor + ')' if self.governor else ''}, "
            f"python {self.python}, numpy {self.numpy}"
            f"{', scipy ' + self.scipy if self.scipy else ''}"
            f"{', ' + self.blas if self.blas else ''}"
            f"{', backend ' + self.backend if self.backend else ''}"
            f"{', git ' + self.git_sha if self.git_sha else ''}"
            f" [{self.digest}]"
        )


def collect_fingerprint(backend: str = "", **extra: str) -> EnvironmentFingerprint:
    """Probe the current process's environment; never raises.

    ``backend`` is the inspector tier the run measures under (environment
    key; leave empty for tier-agnostic artifacts).  ``extra`` key/values
    are stamped into provenance (e.g.
    ``collect_fingerprint(benchmark="perf-smoke")``).
    """
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except Exception:  # pragma: no cover - scipy is baked into the image
        scipy_version = ""
    # provenance switches read from the ambient layers (guarded so a
    # stripped-down install can still fingerprint itself)
    try:
        from ..observability.state import STATE as _obs_state

        obs_enabled = bool(_obs_state.enabled)
    except Exception:  # pragma: no cover
        obs_enabled = False
    try:
        from ..resilience.faults import active_plan

        faults = active_plan() is not None
    except Exception:  # pragma: no cover
        faults = False
    return EnvironmentFingerprint(
        cpu_model=cpu_model(),
        cpu_count=os.cpu_count() or 0,
        governor=cpu_governor(),
        os=platform.platform(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy_version,
        blas=blas_backend(),
        backend=str(backend),
        git_sha=git_sha(),
        observability_enabled=obs_enabled,
        faults_armed=faults,
        extra={k: str(v) for k, v in extra.items()},
    )
